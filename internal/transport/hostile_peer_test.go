package transport

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestConnectionIDSequenceBeyondLimitClosesConnection: NEW_CONNECTION_ID is
// the path-setup frame — a path is its CID sequence number — and the
// sequence number used to size the peer-CID table with no bound: one
// correctly sealed frame with Sequence 2^40 grew the table until the process
// died (this test did not return before the check existed). It must end the
// connection with CONNECTION_ID_LIMIT_ERROR and leave the table as it was.
func TestConnectionIDSequenceBeyondLimitClosesConnection(t *testing.T) {
	cid := wire.ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}
	for _, tc := range []struct {
		name string
		seq  uint64
		want uint64
	}{
		{"last sequence number in the table", maxCIDs - 1, ErrCodeNone},
		{"first sequence number beyond it", maxCIDs, ErrCodeConnectionIDLimit},
		{"2^40", 1 << 40, ErrCodeConnectionIDLimit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pair := establishedPair(t, 31)
			before := len(pair.Server.peerCIDs)
			start := time.Now()
			injectFrames(pair, &wire.NewConnectionIDFrame{Sequence: tc.seq, ConnectionID: cid})
			if d := time.Since(start); d > time.Second {
				t.Fatalf("the frame took %v to handle", d)
			}
			st := pair.Server.Stats()
			if closed := pair.Server.Closed(); closed != (tc.want != ErrCodeNone) || st.CloseErrorCode != tc.want {
				t.Fatalf("closed %v with code %#x (%q), want code %#x", closed, st.CloseErrorCode, st.CloseReason, tc.want)
			}
			if tc.want == ErrCodeNone {
				if !pair.Server.peerCIDs[tc.seq].Equal(cid) {
					t.Fatalf("CID %d not recorded", tc.seq)
				}
				return
			}
			if !st.CloseLocal {
				t.Fatal("the close is not recorded as detected locally")
			}
			if got := len(pair.Server.peerCIDs); got != before {
				t.Fatalf("peer CID table went from %d to %d entries", before, got)
			}
			pair.RunUntil(30 * time.Second)
			if cs := pair.Client.Stats(); !pair.Client.Closed() || cs.CloseErrorCode != tc.want || cs.CloseLocal {
				t.Fatalf("client saw close code %#x local %v, want the server's %#x", cs.CloseErrorCode, cs.CloseLocal, tc.want)
			}
		})
	}
}

// keptSender keeps a copy of every datagram a connection sends.
type keptSender struct{ pkts [][]byte }

func (s *keptSender) SendBatch(netIdx int, pkts [][]byte) int {
	for _, d := range pkts {
		s.pkts = append(s.pkts, append([]byte(nil), d...))
	}
	return len(pkts)
}

// TestTruncatedHelloParamsDoNotEstablish: a client hello whose transport
// parameters end inside a value is no hello. The server keeps waiting for a
// real one instead of running with zero limits; the whole hello, sealed the
// same way, establishes.
func TestTruncatedHelloParamsDoNotEstablish(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  int // bytes cut off the end of the hello
	}{
		{"whole hello", 0},
		{"last byte cut", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ccfg, scfg := defaultMPConfig()
			ccfg.IsClient = true
			env := SimEnv{Loop: sim.NewLoop()}
			hellos := &keptSender{}
			client := NewConn(env, hellos, ccfg)
			client.AddInterface(0, trace.TechWiFi)
			if err := client.Start(); err != nil {
				t.Fatal(err)
			}
			client.helloPayload = client.helloPayload[:len(client.helloPayload)-tc.cut]
			client.sendInitial()
			server := NewConn(env, discardSender{}, scfg)
			server.HandleDatagram(env.Now(), 0, hellos.pkts[len(hellos.pkts)-1])
			if got, want := server.Established(), tc.cut == 0; got != want {
				t.Fatalf("server established %v, want %v", got, want)
			}
		})
	}
}

// TestFramesForUnknownPathsIgnored: ACK_MP and PATH_STATUS name a path by an
// ID the peer chooses. One the connection never opened — within the CID
// table or far beyond it — is ignored: the connection stays open and keeps
// delivering.
func TestFramesForUnknownPathsIgnored(t *testing.T) {
	pair := establishedPair(t, 34)
	ranges := []wire.AckRange{{Smallest: 0, Largest: 0}}
	for _, f := range []wire.Frame{
		&wire.AckMPFrame{PathID: maxCIDs - 1, Ranges: ranges},
		&wire.AckMPFrame{PathID: 1 << 40, Ranges: ranges},
		&wire.PathStatusFrame{PathID: 1 << 40, StatusSeq: 1, Status: wire.PathAbandon},
	} {
		injectFrames(pair, f)
	}
	col := newCollector()
	pair.Client.SetOnStreamData(col.onData)
	st := pair.Server.OpenStream()
	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	st.Write(payload)
	st.Close()
	pair.RunUntil(pair.Loop.Now() + 5*time.Second)
	if pair.Server.Closed() || pair.Client.Closed() {
		t.Fatalf("closed: server code %#x (%q)", pair.Server.Stats().CloseErrorCode, pair.Server.Stats().CloseReason)
	}
	if got := col.data[st.ID()]; got == nil || !bytes.Equal(got.Bytes(), payload) || col.finished[st.ID()] == 0 {
		t.Fatal("the stream written after the frames did not arrive whole")
	}
}

// rawFrame is a frame of arbitrary bytes, for frame types this package does
// not define.
type rawFrame []byte

func (f rawFrame) Append(b []byte) []byte { return append(b, f...) }
func (f rawFrame) Len() int               { return len(f) }
func (f rawFrame) String() string         { return "RAW" }

// TestUndecodableFrameClosesConnection: an authenticated packet whose
// payload does not parse closes the connection with FRAME_ENCODING_ERROR
// (RFC 9000 §12.4). Dropped unacknowledged instead, as it once was, the peer
// retransmits what the packet carried at every PTO until the idle timeout.
// The frame types this endpoint never sends (DATA_BLOCKED,
// STREAM_DATA_BLOCKED, RETIRE_CONNECTION_ID, the standalone
// QOE_CONTROL_SIGNALS, whose feedback rides ACK_MP) are unknown types here.
func TestUndecodableFrameClosesConnection(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    rawFrame
	}{
		{"unknown type 0x3f", rawFrame{0x3f}},
		{"DATA_BLOCKED", rawFrame{0x14, 0x10}},
		{"STREAM_DATA_BLOCKED", rawFrame{0x15, 0x00, 0x10}},
		{"RETIRE_CONNECTION_ID", rawFrame{0x19, 0x01}},
		{"QOE_CONTROL_SIGNALS", wire.AppendVarint(nil, 0xbaba10)},
		{"STREAM cut inside its length", rawFrame{0x0a, 0x00, 0x40}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pair := establishedPair(t, 35)
			injectFrames(pair, &wire.PingFrame{}, tc.f)
			st := pair.Server.Stats()
			if !pair.Server.Closed() || st.CloseErrorCode != ErrCodeFrameEncoding || !st.CloseLocal {
				t.Fatalf("closed %v with code %#x (%q) local %v, want FRAME_ENCODING_ERROR", pair.Server.Closed(), st.CloseErrorCode, st.CloseReason, st.CloseLocal)
			}
			pair.RunUntil(pair.Loop.Now() + 30*time.Second)
			if !pair.Server.Terminated() || !pair.Client.Terminated() {
				t.Fatalf("server %s, client %s, want both terminated", pair.Server.StateName(), pair.Client.StateName())
			}
			if cs := pair.Client.Stats(); cs.CloseErrorCode != ErrCodeFrameEncoding || cs.CloseLocal {
				t.Fatalf("client saw close code %#x local %v, want the server's %#x", cs.CloseErrorCode, cs.CloseLocal, ErrCodeFrameEncoding)
			}
		})
	}
}

// TestIssuedCIDsRespectPeerLimit: a connection issues as many connection IDs
// as the peer's active_connection_id_limit allows (RFC 9000 §5.1.1), not as
// many as its own. The server used to size by its own limit of 8, so a
// client advertising 2 received sequence numbers 2 to 7, which it must refuse
// with CONNECTION_ID_LIMIT_ERROR. Issued by the peer's limit, nothing is
// refused and the second path still opens on sequence 1.
func TestIssuedCIDsRespectPeerLimit(t *testing.T) {
	ccfg, scfg := defaultMPConfig()
	ccfg.Params.ActiveCIDLimit = 2
	pair := NewPair(sim.NewLoop(), sim.NewRNG(33), TwoPathConfig(20, 20, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(3 * time.Second)
	if pair.Client.Closed() || pair.Server.Closed() {
		t.Fatalf("closed: client code %#x (%q), server code %#x", pair.Client.Stats().CloseErrorCode,
			pair.Client.Stats().CloseReason, pair.Server.Stats().CloseErrorCode)
	}
	if got := len(pair.Server.localCIDs); got != 2 {
		t.Fatalf("server issued %d connection IDs to a client that holds 2", got)
	}
	if got := len(pair.Client.localCIDs); got != maxCIDs {
		t.Fatalf("client issued %d connection IDs to a server that holds %d", got, maxCIDs)
	}
	if got := len(pair.Client.Paths()); got != 2 {
		t.Fatalf("client has %d paths, want 2", got)
	}
}

// TestAckOfUnsentPacketClosesConnection: an ACK range reaching beyond the
// packets a path has sent (RFC 9000 §13.1) used to acknowledge what it
// covered, move the space's largest-acked to the peer's number and have the
// next loss pass declare every packet in flight lost. It must end the
// connection with PROTOCOL_VIOLATION before the ledger sees it; an ACK up to
// the last packet sent is the legal neighbour.
func TestAckOfUnsentPacketClosesConnection(t *testing.T) {
	for _, tc := range []struct {
		name   string
		beyond uint64 // how far past the last sent PN the ACK reaches
		want   uint64
	}{
		{"up to the last packet sent", 0, ErrCodeNone},
		{"one packet beyond", 1, ErrCodeProtocolViolation},
		{"optimistic, up to 2^61", 1 << 61, ErrCodeProtocolViolation},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pair := establishedPair(t, 32)
			srv := pair.Server
			srv.Stream(0).Write(make([]byte, 64<<10))
			pair.RunUntil(pair.Loop.Now() + 2*time.Millisecond) // sent, not yet acknowledged
			sp := srv.paths[0].Space
			if !sp.HasUnacked() {
				t.Fatal("nothing in flight on the server's path 0")
			}
			lastSent := sp.PeekPN() - 1
			lostBefore, ackedBefore := sp.Stats().LostPackets, sp.LargestAcked()
			injectFrames(pair, &wire.AckMPFrame{
				PathID: 0,
				Ranges: []wire.AckRange{{Smallest: lastSent, Largest: lastSent + tc.beyond}},
			})
			st := srv.Stats()
			if closed := srv.Closed(); closed != (tc.want != ErrCodeNone) || st.CloseErrorCode != tc.want {
				t.Fatalf("closed %v with code %#x (%q), want code %#x", closed, st.CloseErrorCode, st.CloseReason, tc.want)
			}
			if tc.want == ErrCodeNone {
				if sp.LargestAcked() != int64(lastSent) {
					t.Fatalf("largest acked %d, want %d", sp.LargestAcked(), lastSent)
				}
				return
			}
			if !st.CloseLocal {
				t.Fatal("the close is not recorded as detected locally")
			}
			if sp.LargestAcked() != ackedBefore {
				t.Fatalf("largest acked moved from %d to %d", ackedBefore, sp.LargestAcked())
			}
			if lost := sp.Stats().LostPackets - lostBefore; lost != 0 {
				t.Fatalf("%d packets declared lost on the strength of the ACK", lost)
			}
		})
	}
}

// queuedResets counts the RESET_STREAM frames waiting in c's control queue.
func queuedResets(c *Conn) int {
	n := 0
	for _, item := range c.ctrlQ {
		if _, ok := item.frame.(*wire.ResetStreamFrame); ok {
			n++
		}
	}
	return n
}

// TestForgottenStreamFramesIgnored: once both halves of a stream have ended
// — the request delivered with its final size, the response held by the peer
// in full — the connection forgets them, and what the peer still sends for
// the stream meets a closed ID instead of a fresh stream at offset 0. A
// duplicate STREAM frame opens nothing, delivers nothing and is counted as
// duplicate bytes; a frame beyond the final size is ignored, where on a live
// stream it still closes the connection with FINAL_SIZE_ERROR; RESET_STREAM,
// STOP_SENDING and MAX_STREAM_DATA change nothing and queue nothing.
func TestForgottenStreamFramesIgnored(t *testing.T) {
	pair := establishedPair(t, 34)
	srv := pair.Server
	opened, delivered := 0, 0
	srv.SetOnStreamOpen(func(time.Duration, *RecvStream) { opened++ })
	srv.SetOnStreamData(func(_ time.Duration, rs *RecvStream, data []byte, fin bool) {
		delivered += len(data)
		if fin && rs.ID() == 0 {
			s := srv.Stream(0)
			s.Write(make([]byte, 200))
			s.Close()
		}
	})
	req := &wire.StreamFrame{StreamID: 0, Data: make([]byte, 100), Fin: true}
	injectFrames(pair, req)
	pair.RunUntil(pair.Loop.Now() + time.Second) // the response is delivered and acknowledged
	if send, recv := srv.OpenStreams(); opened != 1 || delivered != 100 || send != 0 || recv != 0 {
		t.Fatalf("opened %d, delivered %d, holding %d send and %d receive halves; want 1, 100, 0, 0", opened, delivered, send, recv)
	}
	if !srv.recvClosed.has(0) || !srv.sendClosed.has(0) {
		t.Fatal("stream 0 not recorded closed")
	}

	srv.inSend = true // park the send pass: whatever is queued stays queued
	dup := srv.Stats().DuplicateBytesRecv
	for _, f := range []wire.Frame{
		req, // a duplicate
		&wire.StreamFrame{StreamID: 0, Offset: 100, Data: make([]byte, 1)}, // beyond the final size
		&wire.ResetStreamFrame{StreamID: 0, FinalSize: 101},
		&wire.StopSendingFrame{StreamID: 0, ErrorCode: 9},
		&wire.MaxStreamDataFrame{StreamID: 0, MaxStreamData: 1 << 30},
	} {
		injectFrames(pair, f)
	}
	if got := srv.Stats().DuplicateBytesRecv - dup; got != 101 {
		t.Fatalf("%d duplicate bytes counted, want 101", got)
	}
	if send, recv := srv.OpenStreams(); opened != 1 || delivered != 100 || srv.Closed() || send != 0 || recv != 0 || queuedResets(srv) != 0 {
		t.Fatalf("after frames for the forgotten stream: opened %d, delivered %d, closed %v, holding %d/%d, %d resets queued",
			opened, delivered, srv.Closed(), send, recv, queuedResets(srv))
	}

	// The same frame beyond the final size on a live stream is a violation.
	injectFrames(pair, &wire.StreamFrame{StreamID: 4, Offset: 50, Data: make([]byte, 50), Fin: true})
	injectFrames(pair, &wire.StreamFrame{StreamID: 4, Offset: 100, Data: make([]byte, 1)})
	if st := srv.Stats(); !srv.Closed() || st.CloseErrorCode != ErrCodeFinalSize {
		t.Fatalf("live stream: closed %v with code %#x, want FINAL_SIZE_ERROR", srv.Closed(), st.CloseErrorCode)
	}
}

// TestStreamsOpenInAnyOrder: with several paths a stream's first frame can
// overtake a lower-numbered stream's (RFC 9000 §3.2), and forgetting stream 8
// must not close stream 4 — which is why the closed IDs are a set, not a
// highest-ID watermark. Streams that ended out of order merge back into one
// range once the gap fills.
func TestStreamsOpenInAnyOrder(t *testing.T) {
	pair := establishedPair(t, 35)
	srv := pair.Server
	var opened []uint64
	delivered := map[uint64]int{}
	srv.SetOnStreamOpen(func(_ time.Duration, rs *RecvStream) { opened = append(opened, rs.ID()) })
	srv.SetOnStreamData(func(_ time.Duration, rs *RecvStream, data []byte, _ bool) { delivered[rs.ID()] += len(data) })
	for i, id := range []uint64{8, 4, 0} {
		injectFrames(pair, &wire.StreamFrame{StreamID: id, Data: make([]byte, 10*(i+1)), Fin: true})
	}
	if len(opened) != 3 || opened[0] != 8 || opened[1] != 4 || opened[2] != 0 {
		t.Fatalf("streams opened %v, want [8 4 0]", opened)
	}
	if delivered[8] != 10 || delivered[4] != 20 || delivered[0] != 30 {
		t.Fatalf("delivered %v", delivered)
	}
	if _, recv := srv.OpenStreams(); recv != 0 || len(srv.recvClosed[0].All()) != 1 {
		t.Fatalf("%d receive halves held, closed IDs %v; want none held and one range", recv, srv.recvClosed[0].All())
	}
}

// TestForgottenStreamFECIgnored: an FEC window and its repair symbol for a
// stream already finished and forgotten recover nothing. Were the stream
// taken for one never seen, the window's single missing symbol would be
// rebuilt and delivered into a fresh stream 8.
func TestForgottenStreamFECIgnored(t *testing.T) {
	pair := fecPair(t, 36)
	srv := pair.Server
	opened, delivered := 0, 0
	srv.SetOnStreamOpen(func(time.Duration, *RecvStream) { opened++ })
	srv.SetOnStreamData(func(_ time.Duration, _ *RecvStream, data []byte, _ bool) { delivered += len(data) })
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i*5 + 1)
	}
	injectFrames(pair, &wire.StreamFrame{StreamID: 8, Data: data, Fin: true})
	before := srv.Stats()
	injectFrames(pair, &wire.FECWindowFrame{
		WindowID: 1, StreamID: 8, DataLen: 64, SymbolSize: 64, Scheme: wire.FECSchemeXOR, Repairs: 1,
	})
	injectFrames(pair, &wire.FECRepairFrame{WindowID: 1, Data: fecRepairFor(wire.FECSchemeXOR, 0, 64, data)})
	st := srv.Stats()
	if st.FECWindowsRecv != before.FECWindowsRecv+1 || st.FECRepairsRecv != before.FECRepairsRecv+1 {
		t.Fatal("the window and repair never arrived")
	}
	if _, recv := srv.OpenStreams(); opened != 1 || delivered != 64 || recv != 0 || st.FECRecoveredBytes != 0 {
		t.Fatalf("opened %d, delivered %d, holding %d, recovered %d bytes; want 1, 64, 0, 0", opened, delivered, recv, st.FECRecoveredBytes)
	}
}
