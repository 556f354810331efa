package transport

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestHandshakeTimeoutTerminal checks the hardened handshake failure path:
// when every path is dead from the start, the client must not retransmit its
// Initial forever. Once the PTO budget is exhausted it enters a terminal
// error state surfaced via Stats and OnClosed, and its timers quiesce.
func TestHandshakeTimeoutTerminal(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	ccfg.HandshakeMaxPTOs = 3 // 1+2+4+8 seconds of initial-PTO backoff
	pair := NewPair(loop, sim.NewRNG(11), TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	pair.Network.Paths[0].SetDown(true)
	pair.Network.Paths[1].SetDown(true)

	var closedAt time.Duration
	var closedCode uint64
	var closedCount int
	pair.Client.SetOnClosed(func(now time.Duration, code uint64, reason string, local bool) {
		closedAt = now
		closedCode = code
		closedCount++
		if !local {
			t.Error("handshake failure must be reported as a local close")
		}
	})
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(30 * time.Second)

	if !pair.Client.Terminated() {
		t.Fatalf("client state %q, want terminal closed", pair.Client.StateName())
	}
	if closedCount != 1 {
		t.Fatalf("OnClosed fired %d times, want exactly 1", closedCount)
	}
	if closedCode != ErrCodeHandshakeTimeout {
		t.Fatalf("close code %#x, want ErrCodeHandshakeTimeout", closedCode)
	}
	if st := pair.Client.Stats(); st.CloseErrorCode != ErrCodeHandshakeTimeout || !st.CloseLocal {
		t.Fatalf("stats close info wrong: %+v", st)
	}
	if closedAt == 0 || closedAt > 25*time.Second {
		t.Fatalf("handshake gave up at %v; want bounded failure", closedAt)
	}
	// Terminal means quiescent: no timer may keep the event loop alive.
	if n := loop.Run(64); n != 0 {
		t.Fatalf("event loop still live after terminal close: %d events ran", n)
	}
}

// TestIdleTimeoutTerminal checks RFC 9000 §10.1 behavior: when every path
// dies after the handshake, both endpoints close silently once IdleTimeout
// passes without received packets, and the event loop quiesces (no leaked
// retransmission timers).
func TestIdleTimeoutTerminal(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	ccfg.IdleTimeout = time.Second
	scfg.IdleTimeout = time.Second
	pair := NewPair(loop, sim.NewRNG(12), TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	// Check establishment well before the idle timeout can fire: with no
	// traffic, timing out after 1s of silence is correct.
	pair.RunUntil(300 * time.Millisecond)
	if !pair.Client.Established() || !pair.Server.Established() {
		t.Fatal("handshake failed")
	}
	pair.Network.Paths[0].SetDown(true)
	pair.Network.Paths[1].SetDown(true)
	pair.RunUntil(30 * time.Second)

	for name, c := range map[string]*Conn{"client": pair.Client, "server": pair.Server} {
		if !c.Terminated() {
			t.Fatalf("%s state %q, want terminal closed", name, c.StateName())
		}
		if st := c.Stats(); st.CloseErrorCode != ErrCodeIdleTimeout {
			t.Fatalf("%s close code %#x, want ErrCodeIdleTimeout", name, st.CloseErrorCode)
		}
	}
	if n := loop.Run(64); n != 0 {
		t.Fatalf("event loop still live after both endpoints terminated: %d events ran", n)
	}
}

// TestCloseLifecycleStates walks the full §10.2 machine: a local Close
// enters closing (close frame retained), the peer enters draining, and both
// reach the terminal state after the drain period without leaking timers.
// Each transition is traced, the drain expiry into closed included: a
// connection that leaves service without a trace is undebuggable at fleet
// scale (the chaos corpus checks the same of the idle-timeout and handshake
// give-up paths). Draining only waits: the server abandons no path.
func TestCloseLifecycleStates(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	tr := obs.NewTrace("close-lifecycle")
	ccfg.Tracer, scfg.Tracer = tr.Origin("client"), tr.Origin("server")
	pair := NewPair(loop, sim.NewRNG(13), TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	var serverLocal, serverFired = true, false
	pair.Server.SetOnClosed(func(now time.Duration, code uint64, reason string, local bool) {
		serverLocal = local
		serverFired = true
	})
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(time.Second)
	pair.Client.Close(7, "bye")
	if got := pair.Client.StateName(); got != "closing" {
		t.Fatalf("client state after Close: %q, want closing", got)
	}
	pair.RunUntil(1200 * time.Millisecond)
	if got := pair.Server.StateName(); got != "draining" && got != "closed" {
		t.Fatalf("server state after peer close: %q, want draining/closed", got)
	}
	if !serverFired || serverLocal {
		t.Fatalf("server OnClosed fired=%v local=%v, want fired remote close", serverFired, serverLocal)
	}
	if st := pair.Server.Stats(); st.CloseErrorCode != 7 || st.CloseReason != "bye" {
		t.Fatalf("server close info %+v, want code 7 reason bye", st)
	}
	pair.RunUntil(30 * time.Second)
	if !pair.Client.Terminated() || !pair.Server.Terminated() {
		t.Fatalf("states after drain: client=%q server=%q, want closed/closed",
			pair.Client.StateName(), pair.Server.StateName())
	}
	if n := loop.Run(64); n != 0 {
		t.Fatalf("event loop still live after drain: %d events ran", n)
	}

	evs, err := obs.ParseBytes(tr.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	traced := map[string][]string{}
	for _, e := range evs {
		if e.Name == obs.EvConnState {
			traced[e.Origin] = append(traced[e.Origin], e.Str("old")+"→"+e.Str("new"))
		}
		if e.Name == obs.EvPathAbandoned && e.Origin == "server" {
			t.Errorf("the draining server traced %s at %v", e.Name, e.Time)
		}
	}
	for _, want := range []struct{ origin, transitions string }{
		{"client", "handshake→established established→closing closing→closed"},
		{"server", "handshake→established established→draining draining→closed"},
	} {
		if got := strings.Join(traced[want.origin], " "); got != want.transitions {
			t.Errorf("%s traced %q, want %q", want.origin, got, want.transitions)
		}
	}
}

// TestClosedConnForgetsStreams: the drain timer keeps a closed connection
// reachable for three PTOs, so whatever the connection still references is
// held that long. Stream payload must not be: both the closing and the
// draining side let go of their streams at once, and a handle the
// application kept stays usable.
func TestClosedConnForgetsStreams(t *testing.T) {
	ccfg, scfg := defaultMPConfig()
	col := newCollector()
	scfg.OnStreamData = col.onData
	pair := NewPair(sim.NewLoop(), sim.NewRNG(13), TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(time.Second)
	st := pair.Client.OpenStream()
	st.Write(make([]byte, 64<<10))
	pair.RunUntil(2 * time.Second)
	if col.data[st.ID()] == nil || col.data[st.ID()].Len() != 64<<10 {
		t.Fatal("transfer did not complete before the close")
	}
	pair.Client.Close(0, "done")
	pair.RunUntil(2200 * time.Millisecond)
	if pair.Client.Terminated() || pair.Server.Terminated() {
		t.Fatal("drain period over already: nothing to check")
	}
	if n := len(pair.Client.sendStreams) + len(pair.Client.recvStreams); n != 0 {
		t.Fatalf("closing client still holds %d streams", n)
	}
	if n := len(pair.Server.sendStreams) + len(pair.Server.recvStreams); n != 0 {
		t.Fatalf("draining server still holds %d streams", n)
	}
	st.Write([]byte("late")) // goes nowhere, must not panic
	if pair.Client.OpenStream() == nil {
		t.Fatal("OpenStream on a closed connection")
	}
	sent := pair.Client.Stats().SentPackets
	pair.RunUntil(30 * time.Second)
	if got := pair.Client.Stats().SentPackets; got != sent {
		t.Fatalf("closed connection sent %d more packets", got-sent)
	}
}

// TestPTOGiveUpAbandonsDeadPath checks the give-up rule: when a path's PTO
// count crosses the threshold while another usable path exists, the path is
// abandoned outright, the primary path 0 included, and the transfer completes
// on the survivor. The rule runs where packets are in flight on the dead path
// — the server, which is sending the transfer; the client's delayed ACKs may
// leave nothing ack-eliciting there. The client learns via
// PATH_STATUS(abandon) and closes the path too.
func TestPTOGiveUpAbandonsDeadPath(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	pair := NewPair(loop, sim.NewRNG(15), TwoPathConfig(8, 8, 20*time.Millisecond, 40*time.Millisecond), ccfg, scfg)
	// Kill the primary (wifi) permanently mid-transfer.
	loop.At(500*time.Millisecond, func(time.Duration) {
		pair.Network.Paths[0].SetDown(true)
	})
	transfer(t, pair, 1<<20, 60*time.Second)
	for _, side := range []struct {
		name    string
		c       *Conn
		givesUp bool
	}{{"server", pair.Server, true}, {"client", pair.Client, false}} {
		st := side.c.Stats()
		if side.givesUp && st.AutoAbandonedPaths == 0 {
			t.Fatalf("%s, with data in flight, never gave up on the dead primary", side.name)
		}
		if side.c.Path(0).State != PathClosed {
			t.Fatalf("%s: dead path state %v, want closed", side.name, side.c.Path(0).State)
		}
	}
}

// TestPeerAbandonClosesPath: a PATH_STATUS(abandon) from the peer for path 0,
// the primary, closes it as a local AbandonPath does, and a transfer started
// afterwards completes on path 1 alone.
func TestPeerAbandonClosesPath(t *testing.T) {
	ccfg, scfg := defaultMPConfig()
	col := newCollector()
	scfg.OnStreamData = col.onData
	pair := NewPair(sim.NewLoop(), sim.NewRNG(17), TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(time.Second)
	if len(pair.Client.Paths()) != 2 || !pair.Client.Path(1).Usable() {
		t.Fatal("second path never came up")
	}
	pair.Server.AbandonPath(0)
	pair.RunUntil(2 * time.Second)
	c := pair.Client
	if c.Path(0).State != PathClosed {
		t.Fatalf("client path 0 %v after the peer abandoned it, want closed", c.Path(0).State)
	}
	sent0, sent1 := c.Path(0).SentBytes, c.Path(1).SentBytes
	const size = 256 << 10
	st := c.OpenStream()
	st.Write(make([]byte, size))
	st.Close()
	pair.RunUntil(4 * time.Second)
	if buf := col.data[st.ID()]; buf == nil || buf.Len() != size || col.finished[st.ID()] == 0 {
		t.Fatal("transfer after the abandon did not complete")
	}
	if got := c.Path(0).SentBytes - sent0; got != 0 {
		t.Errorf("closed path 0 carried %d bytes", got)
	}
	if got := c.Path(1).SentBytes - sent1; got < size {
		t.Errorf("path 1 carried %d bytes, want at least %d", got, size)
	}
}

// TestEvacuatedPathLateAcksHarmless covers suspect-path evacuation racing
// late acknowledgements: path 0 suddenly gains 2s of one-way delay, so the
// sender declares everything on it lost (standby + evacuation), retransmits
// on the survivor — and then the original ACKs arrive, 4+ seconds stale,
// for packets already declared lost. Those must be absorbed without panics
// or accounting damage, and the transfer must complete exactly.
func TestEvacuatedPathLateAcksHarmless(t *testing.T) {
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	// Original-path acks keep path-0 ACKs on the delayed path, maximizing
	// staleness.
	ccfg.AckPolicy = AckOriginalPath
	pair := NewPair(loop, sim.NewRNG(16), TwoPathConfig(8, 8, 20*time.Millisecond, 40*time.Millisecond), ccfg, scfg)
	loop.At(500*time.Millisecond, func(time.Duration) {
		pair.Network.Paths[0].SetExtraDelay(2 * time.Second)
	})
	_, done := transfer(t, pair, 1<<20, 60*time.Second)
	if done == 0 {
		t.Fatal("transfer did not complete")
	}
	st := pair.Server.Stats()
	if st.RtxBytesSent == 0 {
		t.Fatal("evacuation should have forced retransmissions on the survivor")
	}
	// Late ACK_MP frames for evacuated packets did arrive (the path kept
	// delivering, just very late) — receiving them is the point of the test.
	if pair.Server.Path(0) == nil {
		t.Fatal("path 0 vanished")
	}
}

// batchOnlySender implements DatagramSender with SendBatch alone and counts
// how often it was handed each distinct datagram. Sealed packets never
// repeat (every one has its own packet number), so a count above one is a
// double send.
type batchOnlySender struct {
	next      DatagramSender
	seen      map[string]int
	packets   uint64
	bytes     uint64
	long      int // long-header (Initial) packets
	longBytes uint64
}

func (s *batchOnlySender) SendBatch(netIdx int, pkts [][]byte) int {
	for _, p := range pkts {
		s.seen[string(p)]++
		s.packets++
		s.bytes += uint64(len(p))
		if p[0]&0x80 != 0 {
			s.long++
			s.longBytes += uint64(len(p))
		}
	}
	return s.next.SendBatch(netIdx, pkts)
}

// closeLifecycle drives a two-path pair through handshake → 64 KiB of data →
// the client's Close → the terminal state on both sides, each side sending
// through a batchOnlySender. It calls check once the data is delivered and
// again once both sides are closed.
func closeLifecycle(t *testing.T, check func(stage string, client, server *Conn, cs, ss *batchOnlySender)) {
	t.Helper()
	loop := sim.NewLoop()
	ccfg, scfg := defaultMPConfig()
	pair := NewPair(loop, sim.NewRNG(13), TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	client, server := pair.Client, pair.Server
	cs := &batchOnlySender{next: client.sender, seen: map[string]int{}}
	ss := &batchOnlySender{next: server.sender, seen: map[string]int{}}
	client.sender, server.sender = cs, ss
	col := newCollector()
	server.SetOnStreamData(col.onData)
	client.SetOnHandshakeDone(func(now time.Duration) {
		s := client.OpenStream()
		s.Write(make([]byte, 64<<10))
		s.Close()
	})
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(2 * time.Second)
	if len(col.finished) != 1 {
		t.Fatal("stream did not complete")
	}
	check("before close", client, server, cs, ss)
	client.Close(0, "done")
	loop.RunUntil(30 * time.Second)
	if !client.Terminated() || !server.Terminated() {
		t.Fatalf("states %q/%q, want closed", client.StateName(), server.StateName())
	}
	check("after close", client, server, cs, ss)
}

// TestBatchOnlySenderSeesEveryPacketOnce drives handshake → data → Close
// through senders that have no single-datagram method: Initials, 1-RTT
// packets and closing-state resends must all arrive through SendBatch,
// each exactly once.
func TestBatchOnlySenderSeesEveryPacketOnce(t *testing.T) {
	var beforeClose uint64
	closeLifecycle(t, func(stage string, client, server *Conn, cs, ss *batchOnlySender) {
		if stage == "before close" {
			beforeClose = cs.packets
			return
		}
		if cs.packets == beforeClose {
			t.Fatal("CONNECTION_CLOSE never reached the sender")
		}
		for _, side := range []struct {
			name string
			s    *batchOnlySender
			conn *Conn
		}{{"client", cs, client}, {"server", ss, server}} {
			name, s, st := side.name, side.s, side.conn.Stats()
			if s.packets != st.SentPackets || s.bytes != st.SentBytes {
				t.Fatalf("%s sender saw %d packets / %d bytes, connection sent %d / %d",
					name, s.packets, s.bytes, st.SentPackets, st.SentBytes)
			}
			if s.long == 0 {
				t.Fatalf("%s Initial never reached the sender", name)
			}
			for _, n := range s.seen {
				if n != 1 {
					t.Fatalf("%s sender was handed one datagram %d times", name, n)
				}
			}
		}
	})
}

// TestPathCountersSumToConnection: every 1-RTT packet is counted on the path
// it left on, so the paths' SentPackets and SentBytes plus the Initials add
// up to the connection's totals — after the data and after the close, whose
// resends once counted toward the connection alone.
func TestPathCountersSumToConnection(t *testing.T) {
	closeLifecycle(t, func(stage string, client, server *Conn, cs, ss *batchOnlySender) {
		for _, side := range []struct {
			name string
			s    *batchOnlySender
			conn *Conn
		}{{"client", cs, client}, {"server", ss, server}} {
			packets, bytes := uint64(side.s.long), side.s.longBytes
			for _, p := range side.conn.Paths() {
				packets += p.SentPackets
				bytes += p.SentBytes
			}
			if st := side.conn.Stats(); packets != st.SentPackets || bytes != st.SentBytes {
				t.Errorf("%s, %s: paths and Initials sum to %d packets / %d bytes, connection sent %d / %d",
					stage, side.name, packets, bytes, st.SentPackets, st.SentBytes)
			}
		}
	})
}

// TestStreamStateBoundedByOpenStreams: a connection that carries one stream
// per request costs what it has open, not every stream it ever carried. Over
// 20 000 sequential exchanges (64-byte request, 1 000-byte response) each end
// holds at most two halves of each kind — the exchange in progress and the
// one before it, whose last acknowledgement may still be on its way — the
// closed IDs stay one range per stream type, and the live heap does not grow
// between exchange 1 000 and exchange 20 000.
func TestStreamStateBoundedByOpenStreams(t *testing.T) {
	const exchanges, warm = 20000, 1000
	ccfg, scfg := defaultMPConfig()
	pair := NewPair(sim.NewLoop(), sim.NewRNG(37), TwoPathConfig(20, 20, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	cli, srv := pair.Client, pair.Server
	req, resp := make([]byte, 64), make([]byte, 1000)
	srv.SetOnStreamData(func(_ time.Duration, rs *RecvStream, _ []byte, fin bool) {
		if fin {
			s := srv.Stream(rs.ID())
			s.Write(resp)
			s.Close()
		}
	})
	next := func() {
		s := cli.OpenStream()
		s.Write(req)
		s.Close()
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	done := 0
	var warmHeap, endHeap uint64
	cli.SetOnStreamData(func(_ time.Duration, _ *RecvStream, _ []byte, fin bool) {
		if !fin {
			return
		}
		done++
		for _, c := range []*Conn{cli, srv} {
			if send, recv := c.OpenStreams(); send > 2 || recv > 2 {
				t.Fatalf("exchange %d: %s holds %d send and %d receive halves", done, c.StateName(), send, recv)
			}
			for typ := range c.sendClosed {
				if n, m := len(c.sendClosed[typ].All()), len(c.recvClosed[typ].All()); n > 1 || m > 1 {
					t.Fatalf("exchange %d: closed IDs of type %d in %d send and %d receive ranges", done, typ, n, m)
				}
			}
		}
		switch done {
		case warm:
			warmHeap = heap()
		case exchanges:
			endHeap = heap()
			return
		}
		next()
	})
	cli.SetOnHandshakeDone(func(time.Duration) { next() })
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	for done < exchanges && !cli.Closed() && pair.Loop.Run(1<<16) > 0 {
	}
	if done != exchanges {
		t.Fatalf("%d of %d exchanges completed", done, exchanges)
	}
	if endHeap > warmHeap+64<<10 {
		t.Fatalf("live heap grew %d bytes from exchange %d to %d", endHeap-warmHeap, warm, exchanges)
	}
}

// TestResetOfDeliveredStreamQueuesNothing: a stream the peer holds in full
// is in RFC 9000's terminal "Data Recvd" state (§3.1), so resetting it —
// through the handle, a detached handle of the forgotten stream, or a late
// STOP_SENDING from the peer — queues no RESET_STREAM. That holds before the
// stream retires too, while a copy of its data is still in flight.
func TestResetOfDeliveredStreamQueuesNothing(t *testing.T) {
	pair := establishedPair(t, 38)
	srv := pair.Server
	held := srv.Stream(0)
	held.Write(make([]byte, 10<<10))
	held.Close()
	pair.RunUntil(pair.Loop.Now() + time.Second)
	if !held.retired || srv.sendStreams[0] != nil {
		t.Fatal("the delivered stream was not forgotten")
	}

	srv.inSend = true // park the send pass: whatever is queued stays queued
	held.Reset(7)
	detached := srv.Stream(0)
	detached.Write([]byte("late"))
	detached.Close()
	detached.Reset(7)
	injectFrames(pair, &wire.StopSendingFrame{StreamID: 0, ErrorCode: 9})
	if n := queuedResets(srv); n != 0 || held.IsReset() || detached.Buffered() != 0 || srv.sendStreams[0] != nil {
		t.Fatalf("%d resets queued, held reset %v, detached buffered %d, stream held again %v",
			n, held.IsReset(), detached.Buffered(), srv.sendStreams[0] != nil)
	}

	// Held in full but not retired: a copy of its one chunk is in flight.
	s := srv.Stream(4)
	s.Write(make([]byte, 10))
	s.Close()
	ch, _ := s.nextNewChunk(1000)
	s.inFlight++
	s.onChunkAcked(ch)
	s.Reset(7)
	injectFrames(pair, &wire.StopSendingFrame{StreamID: 4, ErrorCode: 9})
	if n := queuedResets(srv); n != 0 || s.IsReset() || s.retired {
		t.Fatalf("%d resets queued, reset %v, retired %v", n, s.IsReset(), s.retired)
	}

	// A stream the peer does not hold yet is reset as before.
	srv.Stream(8).Write(make([]byte, 10))
	srv.Stream(8).Reset(7)
	if n := queuedResets(srv); n != 1 {
		t.Fatalf("%d resets queued for a stream in progress, want 1", n)
	}
}
