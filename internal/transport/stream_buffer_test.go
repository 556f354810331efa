package transport

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/assert"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestStreamMemoryBoundedByWindow moves one long stream — 256 MiB, far more
// than either side may buffer — over a lossy two-path network with
// re-injection on, and samples what the stream buffers hold every 100 ms of
// virtual time. The receive side may never hold more than the window it
// advertised plus a segment, the send side never more than what was written
// and not yet delivered plus a segment, both must be empty once the FIN is
// acknowledged, and every byte must arrive intact. Under -tags xlinkdebug
// released send segments are poisoned before reuse, so a read through a stale
// reference fails the content check here; so are recycled packet records
// (DESIGN.md §18: packet number out of range, chunk list emptied), and
// recovery asserts on every loss-detection call that no pooled record is in
// AckResult.Acked or .Lost, in the ledger or behind the re-injection cursor —
// a record reused too early would lose its chunks' retransmission and stall
// the stream, or trip the assertion.
func TestStreamMemoryBoundedByWindow(t *testing.T) {
	size := uint64(256 << 20)
	if testing.Short() {
		size = 24 << 20
	}
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	scfg.ReinjectionMode = ReinjectStreamPriority
	paths := TwoPathConfig(400, 200, 10*time.Millisecond, 30*time.Millisecond)
	paths[0].LossRate, paths[1].LossRate = 0.005, 0.005
	pair := NewPair(loop, sim.NewRNG(15), paths, ccfg, scfg)
	window := ccfg.Params.InitialMaxStrData
	made := recovery.RecordsMade()

	var got uint64
	var finished, corrupt bool
	var doneAt time.Duration
	pair.Client.SetOnStreamData(func(now time.Duration, _ *RecvStream, data []byte, fin bool) {
		for i, b := range data {
			if b != streamByte(got+uint64(i)) {
				corrupt = true
			}
		}
		got += uint64(len(data))
		if fin {
			finished, doneAt = true, now
		}
	})

	// The application writes ahead of the network by at most ahead bytes, as
	// a server reading a file would; writing 256 MiB at once would only
	// measure the application's own copy.
	const ahead = 6 << 20
	var ss *SendStream
	block := make([]byte, 256<<10)
	feed := func() {
		for ss != nil && ss.written < size && ss.written-ss.released+uint64(len(block)) <= ahead {
			n := min(uint64(len(block)), size-ss.written)
			fillStream(block[:n], ss.written)
			ss.Write(block[:n])
			if ss.written == size {
				ss.Close()
			}
		}
	}
	pair.Server.SetOnStreamOpen(func(_ time.Duration, rs *RecvStream) {
		ss = pair.Server.Stream(rs.ID())
		feed()
	})
	pair.Client.SetOnHandshakeDone(func(time.Duration) {
		s := pair.Client.OpenStream()
		s.Write([]byte("GET"))
		s.Close()
	})

	samples := 0
	var tick func(now time.Duration)
	tick = func(now time.Duration) {
		feed()
		if ss != nil {
			samples++
			srv, cli := pair.Server.Stats(), pair.Client.Stats()
			if limit := ss.written - ss.released + segSize; srv.SendBufferedBytes > limit {
				t.Fatalf("%v: send side holds %d bytes, written-delivered+segment = %d", now, srv.SendBufferedBytes, limit)
			}
			if cli.RecvBufferedBytes > window+segSize {
				t.Fatalf("%v: receive side holds %d bytes, window+segment = %d", now, cli.RecvBufferedBytes, window+segSize)
			}
		}
		if !finished || !ss.complete() {
			loop.After(10*time.Millisecond, tick)
		}
	}
	// Feeding runs every tick; the bounds are asserted on each one, ten
	// times as often as the 100 ms the issue asks for.
	loop.After(10*time.Millisecond, tick)
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(120 * time.Second)

	if !finished || got != size || corrupt {
		t.Fatalf("received %d of %d bytes, finished %v, corrupt %v", got, size, finished, corrupt)
	}
	srv, cli := pair.Server.Stats(), pair.Client.Stats()
	if !ss.complete() || srv.SendBufferedBytes != 0 || cli.RecvBufferedBytes != 0 {
		t.Fatalf("after the FIN was acked (%v): send side holds %d, receive side %d", ss.complete(), srv.SendBufferedBytes, cli.RecvBufferedBytes)
	}
	if srv.SendBufferedPeak > ahead+segSize || cli.RecvBufferedPeak > window+segSize {
		t.Fatalf("peaks: send %d (limit %d), receive %d (limit %d)", srv.SendBufferedPeak, ahead+segSize, cli.RecvBufferedPeak, window+segSize)
	}
	// Under -race the pool drops a quarter of the records on purpose.
	if made = recovery.RecordsMade() - made; 2*made > srv.SentPackets {
		t.Fatalf("%d records made for %d packets sent: the session did not recycle them", made, srv.SentPackets)
	}
	if srv.ReinjectedBytesSent == 0 || srv.RtxBytesSent == 0 {
		t.Fatalf("scenario too tame: %d re-injected and %d retransmitted bytes", srv.ReinjectedBytesSent, srv.RtxBytesSent)
	}
	t.Logf("%d MiB in %v virtual, %d samples; peaks: send %d KiB, receive %d KiB; rtx %d KiB, re-injected %d KiB; %d records made for %d packets",
		size>>20, doneAt, samples, srv.SendBufferedPeak>>10, cli.RecvBufferedPeak>>10, srv.RtxBytesSent>>10, srv.ReinjectedBytesSent>>10, made, srv.SentPackets)
}

// TestReleasedSegmentsArePoisoned checks the xlinkdebug half of the release
// contract for both size classes: a send segment is overwritten before it
// re-enters the process-wide pool, and another connection's stream that
// takes it gets it back whole; so is a stream's small first segment, whether
// the stream outgrew it or released it.
func TestReleasedSegmentsArePoisoned(t *testing.T) {
	t.Run("small", testReleasedSmallSegmentsArePoisoned)
	data := make([]byte, 3*segSize)
	fillStream(data, 0)
	want := make([]byte, segSize)
	// The pool is per-P and, under the race detector, drops a quarter of
	// what it is given, so one release is not sure to reach the next take;
	// the exchange repeats until a taken segment is one just released.
	for round := uint64(0); ; round++ {
		if round == 100 {
			t.Fatal("no released segment was ever taken by the other connection")
		}
		var acctA, acctB bufAcct
		a := segBuf{acct: &acctA, pooled: true}
		a.put(0, data)
		released := [][]byte{a.span(0, 16), a.span(segSize, 16)} // references held across the release
		a.release(2 * segSize)
		if acctA.bytes != segSize || a.base() != 2*segSize {
			t.Fatalf("holds %d bytes from base %d after the release", acctA.bytes, a.base())
		}
		if assert.Enabled {
			for _, stale := range released {
				for _, v := range stale {
					if v != 0xdb {
						t.Fatalf("released segment not poisoned: % x", stale)
					}
				}
			}
		}
		if got := a.span(2*segSize, segSize); got[0] != streamByte(2*segSize) || len(got) != segSize {
			t.Fatal("the segment above the floor was disturbed")
		}

		b := segBuf{acct: &acctB, pooled: true}
		fillStream(want, (round+3)*segSize) // new content each round, so a leftover byte cannot pass
		b.put(0, want)
		got := b.span(0, segSize)
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: a taken segment did not come back whole", round)
		}
		a.release(releaseAll)
		b.release(releaseAll)
		if acctA.bytes != 0 || acctB.bytes != 0 {
			t.Fatalf("released buffers still account %d and %d bytes", acctA.bytes, acctB.bytes)
		}
		if &got[0] == &released[0][0] || &got[0] == &released[1][0] {
			return
		}
	}
}

// testReleasedSmallSegmentsArePoisoned is TestReleasedSegmentsArePoisoned
// for the small class: a first segment outgrown by its stream, and one
// released by it, reads poison under xlinkdebug, and the stream that takes
// it next gets its own bytes back whole.
func testReleasedSmallSegmentsArePoisoned(t *testing.T) {
	data := make([]byte, 1000)
	fillStream(data, 0)
	want := make([]byte, 1000)
	for round := uint64(0); ; round++ {
		if round == 100 {
			t.Fatal("no released small segment was ever taken by the other stream")
		}
		a := segBuf{pooled: true}
		a.put(0, data)
		outgrown := a.span(0, 16)
		a.put(uint64(len(data)), make([]byte, firstSegMax)) // swaps the small segment for a whole one
		if cap(a.segs[0]) != segSize || !bytes.Equal(a.appendTo(nil, 0, uint64(len(data))), data) {
			t.Fatal("outgrowing the small segment lost the stream's first bytes")
		}
		b := segBuf{pooled: true}
		fillStream(want, (round+3)*segSize) // new content each round, so a leftover byte cannot pass
		b.put(0, want)
		got := b.span(0, uint64(len(want)))
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: a taken small segment did not come back whole", round)
		}
		b.release(releaseAll)
		a.release(releaseAll)
		if assert.Enabled {
			for _, stale := range [][]byte{outgrown, got} {
				if !bytes.Equal(stale, bytes.Repeat([]byte{0xdb}, len(stale))) {
					t.Fatalf("a small segment gone back to its pool reads % x..., want poison", stale[:4])
				}
			}
		}
		if &got[0] == &outgrown[0] {
			return
		}
	}
}

// injectFrames seals frames into a 1-RTT packet with the client's real keys
// and packet-number space and delivers it straight to the server, the way a
// hostile but correctly keyed peer would.
func injectFrames(pair *Pair, frames ...wire.Frame) {
	c := pair.Client
	p := c.paths[0]
	pn := p.Space.NextPN()
	pkt := sealShortInto(nil, c.txSealer, p.DCID, uint32(p.ID), pn, p.Space.LargestAcked(), frames)
	pair.Server.HandleDatagram(pair.Loop.Now(), p.NetIdx, pkt)
}

func establishedPair(t *testing.T, seed int64) *Pair {
	t.Helper()
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	pair := NewPair(loop, sim.NewRNG(seed), TwoPathConfig(20, 20, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(time.Second)
	if !pair.Server.Established() {
		t.Fatal("handshake did not complete")
	}
	return pair
}

// TestStreamOffsetBeyondLimitClosesConnection is the remote-OOM regression:
// one STREAM frame at offset 2^40, correctly sealed, must end the connection
// with FLOW_CONTROL_ERROR before the offset sizes anything.
func TestStreamOffsetBeyondLimitClosesConnection(t *testing.T) {
	pair := establishedPair(t, 21)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	injectFrames(pair, &wire.StreamFrame{StreamID: 0, Offset: 1 << 40, Data: []byte("boom")})
	runtime.ReadMemStats(&after)
	st := pair.Server.Stats()
	if !pair.Server.Closed() || st.CloseErrorCode != ErrCodeFlowControl || !st.CloseLocal {
		t.Fatalf("server state %s, close code %#x local %v; want closing with FLOW_CONTROL_ERROR", pair.Server.StateName(), st.CloseErrorCode, st.CloseLocal)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= segSize {
		t.Fatalf("the frame cost %d bytes of allocation, want less than one segment", alloc)
	}
	if st.RecvBufferedBytes != 0 {
		t.Fatalf("receive buffers hold %d bytes", st.RecvBufferedBytes)
	}
	pair.RunUntil(30 * time.Second)
	if cs := pair.Client.Stats(); !pair.Client.Closed() || cs.CloseErrorCode != ErrCodeFlowControl || cs.CloseLocal {
		t.Fatalf("client saw close code %#x local %v, want the server's FLOW_CONTROL_ERROR", cs.CloseErrorCode, cs.CloseLocal)
	}
}

// TestFlowControlAndFinalSizeEnforced walks the other ways a peer can break
// what was advertised; each must close the connection with the named code,
// and the legal sequences next to them must not.
func TestFlowControlAndFinalSizeEnforced(t *testing.T) {
	data := func(n int) []byte { return make([]byte, n) }
	cases := []struct {
		name   string
		frames []wire.Frame
		want   uint64
	}{
		{"data up to the stream limit", []wire.Frame{
			&wire.StreamFrame{StreamID: 0, Offset: 8<<20 - 100, Data: data(100)}}, ErrCodeNone},
		{"one byte beyond the stream limit", []wire.Frame{
			&wire.StreamFrame{StreamID: 0, Offset: 8<<20 - 100, Data: data(101)}}, ErrCodeFlowControl},
		{"streams summing beyond the connection limit", []wire.Frame{
			&wire.StreamFrame{StreamID: 0, Offset: 8<<20 - 1, Data: data(1)},
			&wire.StreamFrame{StreamID: 4, Offset: 8<<20 - 1, Data: data(1)},
			&wire.StreamFrame{StreamID: 8, Offset: 0, Data: data(1)}}, ErrCodeFlowControl},
		{"FIN repeated at the same offset", []wire.Frame{
			&wire.StreamFrame{StreamID: 0, Offset: 0, Data: data(100), Fin: true},
			&wire.StreamFrame{StreamID: 0, Offset: 50, Data: data(50), Fin: true}}, ErrCodeNone},
		{"second FIN at another offset", []wire.Frame{
			&wire.StreamFrame{StreamID: 0, Offset: 100, Data: data(100), Fin: true},
			&wire.StreamFrame{StreamID: 0, Offset: 100, Data: data(50), Fin: true}}, ErrCodeFinalSize},
		{"data beyond the final size", []wire.Frame{
			&wire.StreamFrame{StreamID: 0, Offset: 100, Data: data(100), Fin: true},
			&wire.StreamFrame{StreamID: 0, Offset: 200, Data: data(1)}}, ErrCodeFinalSize},
		{"FIN below data already received", []wire.Frame{
			&wire.StreamFrame{StreamID: 0, Offset: 100, Data: data(100)},
			&wire.StreamFrame{StreamID: 0, Offset: 0, Data: data(50), Fin: true}}, ErrCodeFinalSize},
		{"RESET_STREAM at the size received", []wire.Frame{
			&wire.StreamFrame{StreamID: 0, Offset: 0, Data: data(100)},
			&wire.ResetStreamFrame{StreamID: 0, FinalSize: 100}}, ErrCodeNone},
		{"RESET_STREAM below data already received", []wire.Frame{
			&wire.StreamFrame{StreamID: 0, Offset: 0, Data: data(100)},
			&wire.ResetStreamFrame{StreamID: 0, FinalSize: 99}}, ErrCodeFinalSize},
		{"RESET_STREAM contradicting the FIN", []wire.Frame{
			&wire.StreamFrame{StreamID: 0, Offset: 50, Data: data(50), Fin: true},
			&wire.ResetStreamFrame{StreamID: 0, FinalSize: 101}}, ErrCodeFinalSize},
		{"RESET_STREAM beyond the stream limit", []wire.Frame{
			&wire.StreamFrame{StreamID: 0, Offset: 0, Data: data(100)},
			&wire.ResetStreamFrame{StreamID: 0, FinalSize: 1 << 40}}, ErrCodeFlowControl},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pair := establishedPair(t, 22)
			for _, f := range tc.frames {
				injectFrames(pair, f)
			}
			st := pair.Server.Stats()
			if closed := pair.Server.Closed(); closed != (tc.want != ErrCodeNone) || st.CloseErrorCode != tc.want {
				t.Fatalf("closed %v with code %#x (%q), want code %#x", closed, st.CloseErrorCode, st.CloseReason, tc.want)
			}
			if tc.want != ErrCodeNone && st.RecvBufferedBytes != 0 {
				t.Fatalf("closed connection still buffers %d bytes", st.RecvBufferedBytes)
			}
		})
	}
}

// TestTerminalEventsReleaseBuffers: a reset, a stop, and the connection
// leaving service each drop the segments at once, whoever still holds the
// stream objects.
func TestTerminalEventsReleaseBuffers(t *testing.T) {
	pair := establishedPair(t, 23)
	srv, cli := pair.Server, pair.Client
	payload := make([]byte, 3<<20)

	// Sender-side reset: a stream with everything still buffered.
	s := srv.Stream(0)
	srv.Hold() // park the data: no send pass picks it up
	s.Write(payload)
	if got := srv.Stats().SendBufferedBytes; got != uint64(len(payload)) {
		t.Fatalf("buffered %d of %d written bytes", got, len(payload))
	}
	s.Reset(7)
	if got := srv.Stats().SendBufferedBytes; got != 0 {
		t.Fatalf("reset stream still buffers %d bytes", got)
	}
	s.Write(payload)
	if s.Buffered() != uint64(len(payload)) || srv.Stats().SendBufferedBytes != 0 {
		t.Fatal("a write after Reset was buffered")
	}

	// STOP_SENDING from the peer resets the stream it names.
	s4 := srv.Stream(4)
	s4.Write(payload)
	injectFrames(pair, &wire.StopSendingFrame{StreamID: 4, ErrorCode: 9})
	if !s4.IsReset() || srv.Stats().SendBufferedBytes != 0 {
		t.Fatalf("after STOP_SENDING: reset %v, %d bytes buffered", s4.IsReset(), srv.Stats().SendBufferedBytes)
	}
	srv.Release()

	// Receive side: out-of-order data parked behind a hole, then RESET_STREAM.
	injectFrames(pair, &wire.StreamFrame{StreamID: 8, Offset: 1 << 20, Data: payload[:1000]})
	if got := srv.Stats().RecvBufferedBytes; got == 0 {
		t.Fatal("out-of-order data not buffered")
	}
	rs8 := srv.recvStreams[8]
	injectFrames(pair, &wire.ResetStreamFrame{StreamID: 8, FinalSize: 2 << 20})
	if got := srv.Stats().RecvBufferedBytes; got != 0 || !rs8.Finished() || srv.recvStreams[8] != nil {
		t.Fatalf("reset receive stream buffers %d bytes, finished %v, held %v", got, rs8.Finished(), srv.recvStreams[8] != nil)
	}
	// ...and the application abandoning a stream does the same.
	injectFrames(pair, &wire.StreamFrame{StreamID: 12, Offset: 1 << 20, Data: payload[:1000]})
	srv.StopSending(12, 1)
	if got := srv.Stats().RecvBufferedBytes; got != 0 {
		t.Fatalf("stopped receive stream buffers %d bytes", got)
	}

	// Connection close: both directions, while the handles stay reachable.
	held := cli.OpenStream()
	cli.Hold() // park the data until the close
	held.Write(payload)
	injectFrames(pair, &wire.StreamFrame{StreamID: 16, Offset: 1 << 20, Data: payload[:1000]})
	rs := srv.recvStreams[16]
	cli.Close(0, "done")
	cli.Release()
	srv.Close(0, "done")
	if cs, ss := cli.Stats(), srv.Stats(); cs.SendBufferedBytes != 0 || ss.RecvBufferedBytes != 0 || held.data.pooled {
		t.Fatalf("closed connections buffer %d / %d bytes; send segments still pooled: %v", cs.SendBufferedBytes, ss.RecvBufferedBytes, held.data.pooled)
	}
	held.Write(payload) // a write on a closed connection is dropped, not buffered
	if cli.Terminated() || held.data.segs != nil || rs.data.segs != nil {
		t.Fatal("stream handles still pin segments while the drain timer is pending")
	}
}

// TestFrameRangesOrderedDisjointAndTrimmed covers the frame-tag bookkeeping:
// WriteFrame appends in order, MarkFrame inserts in order and refuses what
// would break the one-search lookup, frameAt agrees with a linear scan, and
// ranges below the release floor are dropped.
func TestFrameRangesOrderedDisjointAndTrimmed(t *testing.T) {
	c := &Conn{cfg: Config{}.withDefaults(), env: SimEnv{Loop: sim.NewLoop()}} // never established: no send pass runs
	s := &SendStream{conn: c}
	s.Write(make([]byte, 1000))        // [0, 1000) untagged
	s.WriteFrame(make([]byte, 500), 0) // [1000, 1500) prio 0
	s.Write(make([]byte, 1000))        // [1500, 2500) untagged
	s.WriteFrame(make([]byte, 200), 3) // [2500, 2700) prio 3
	s.MarkFrame(200, 300, 5)           // inserted before the others
	s.MarkFrame(1600, 1700, 6)         // inserted in the middle
	for _, bad := range [][2]uint64{{250, 400}, {900, 1001}, {1499, 1501}, {2699, 2800}, {300, 300}, {2600, 2650}} {
		s.MarkFrame(bad[0], bad[1], 9)
	}
	want := []FrameRange{{200, 300, 5}, {1000, 1500, 0}, {1600, 1700, 6}, {2500, 2700, 3}}
	if len(s.frames) != len(want) {
		t.Fatalf("frames %v, want %v", s.frames, want)
	}
	for i := range want {
		if s.frames[i] != want[i] {
			t.Fatalf("frames %v, want %v", s.frames, want)
		}
	}
	// The two linear scans frameAt replaced, as the reference.
	ref := func(offset uint64) FrameRange {
		for _, f := range s.frames {
			if offset >= f.Start && offset < f.End {
				return f
			}
		}
		end := s.written
		for _, f := range s.frames {
			if f.Start > offset && f.Start < end {
				end = f.Start
			}
		}
		return FrameRange{Start: offset, End: end, Prio: defaultFramePrio}
	}
	for off := uint64(0); off <= s.written; off += 50 {
		if got := s.frameAt(off); got != ref(off) {
			t.Fatalf("frameAt(%d) = %+v, linear scan %+v", off, got, ref(off))
		}
	}
	// Everything below 1500 delivered: two ranges go, lookups above agree.
	s.nextOffset = 2000
	s.acked.Add(0, 1500)
	s.releaseDelivered()
	if s.released != 1500 || len(s.frames) != 2 || s.frames[0].Start != 1600 {
		t.Fatalf("released %d, frames %v", s.released, s.frames)
	}
	s.MarkFrame(1400, 1450, 1) // below the floor: ignored
	if len(s.frames) != 2 || s.frameAt(1550).End != 1600 || s.frameAt(2600).Prio != 3 {
		t.Fatalf("after release: frames %v", s.frames)
	}
}

// TestFECWindowBeyondLimitIgnored: recovered bytes enter reassembly without
// passing a STREAM frame's admission, so the window announcement is where
// the stream limit is enforced for them — and a late announcement must still
// find the delivered symbols it needs within fecHistory.
func TestFECWindowBeyondLimitIgnored(t *testing.T) {
	pair := fecPair(t, 31)
	c, now := pair.Client, 3*time.Second
	c.handleFECWindow(now, &wire.FECWindowFrame{WindowID: 1, StreamID: 8, BaseOffset: 1 << 40,
		DataLen: 1024, SymbolSize: 1024, Scheme: wire.FECSchemeXOR, Repairs: 1})
	c.handleFECRepair(now, &wire.FECRepairFrame{WindowID: 1, Index: 0, Data: make([]byte, 1024)})
	if st := c.Stats(); len(c.fecDec.wins) != 0 || st.FECRecoveredBytes != 0 || st.RecvBufferedBytes != 0 {
		t.Fatalf("window at 2^40 accepted: %d windows, %d bytes recovered, %d buffered", len(c.fecDec.wins), st.FECRecoveredBytes, st.RecvBufferedBytes)
	}

	// Symbols 0..2 and 4..7 of an 8 KiB window arrive and are delivered up
	// to the hole; the announcement and its repair come afterwards, when the
	// delivered symbols lie below the delivery point.
	data := make([]byte, 8<<10)
	fillStream(data, 0)
	var got []byte
	c.SetOnStreamData(func(_ time.Duration, _ *RecvStream, d []byte, _ bool) { got = append(got, d...) })
	base := uint64(5*segSize - 3000) // the window straddles a segment boundary
	c.handleStreamFrame(now, &wire.StreamFrame{StreamID: 12, Offset: 0, Data: make([]byte, base)})
	for i := 0; i < 8; i++ {
		if i != 3 {
			c.handleStreamFrame(now, &wire.StreamFrame{StreamID: 12, Offset: base + uint64(i<<10), Data: data[i<<10 : (i+1)<<10]})
		}
	}
	c.handleFECWindow(now, &wire.FECWindowFrame{WindowID: 2, StreamID: 12, BaseOffset: base,
		DataLen: 8 << 10, SymbolSize: 1024, Scheme: wire.FECSchemeXOR, Repairs: 1})
	c.handleFECRepair(now, &wire.FECRepairFrame{WindowID: 2, Index: 0, Data: fecRepairFor(wire.FECSchemeXOR, 0, 1024, data)})
	if st := c.Stats(); st.FECRecoveredBytes != 1024 || uint64(len(got)) != base+8<<10 {
		t.Fatalf("late announcement: recovered %d bytes, delivered %d of %d", st.FECRecoveredBytes, len(got), base+8<<10)
	}
	for i, b := range got[base:] {
		if b != data[i] {
			t.Fatalf("recovered window corrupt at %d", i)
		}
	}
}
