package transport

import (
	"testing"
	"time"

	"repro/internal/assert"
	"repro/internal/sim"
)

// reinjPair is an established two-path pair whose server re-injects in the
// given mode whenever *gate is true.
func reinjPair(t *testing.T, mode ReinjectionMode, gate *bool) *Pair {
	t.Helper()
	ccfg, scfg := defaultMPConfig()
	scfg.ReinjectionMode = mode
	scfg.ReinjectionGate = func(time.Duration, time.Duration) bool { return *gate }
	scfg.DisablePathHealth = true // an idle second must not turn the faster path suspect
	pair := NewPair(sim.NewLoop(), sim.NewRNG(5),
		TwoPathConfig(100, 100, 100*time.Millisecond, 140*time.Millisecond), ccfg, scfg)
	pair.Client.SetOnStreamData(func(time.Duration, *RecvStream, []byte, bool) {})
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(time.Second)
	if !pair.Server.Established() || len(pair.Server.usableSendPaths()) != 2 {
		t.Fatal("pair did not establish two usable paths")
	}
	return pair
}

// fastestPath is the path re-injected copies may ride.
func fastestPath(t *testing.T, c *Conn) *Path {
	t.Helper()
	for _, p := range c.Paths() {
		if c.isFastestPath(p) {
			return p
		}
	}
	t.Fatal("no fastest path")
	return nil
}

// trackedPackets counts the sent packets the connection still tracks, and
// how many of them are in flight.
func trackedPackets(c *Conn) (tracked, inFlight int) {
	for _, p := range c.Paths() {
		for _, sp := range p.Space.SentFrom(0) {
			tracked++
			if sp.InFlight() {
				inFlight++
			}
		}
	}
	return tracked, inFlight
}

// TestResetDropsQueuedReinjections: Reset promises that nothing further is
// scheduled for the stream, re-injections included. In appending mode the
// copies wait in their streams' queues behind all new data; the reset
// stream's must go with it, and no other stream's.
func TestResetDropsQueuedReinjections(t *testing.T) {
	gate := true
	pair := reinjPair(t, ReinjectAppending, &gate)
	srv := pair.Server
	doomed, other := srv.Stream(0), srv.Stream(4)
	// Inside the initial window, so both leave at once and the same pass
	// goes on to queue copies of what is now in flight.
	doomed.Write(make([]byte, 3000))
	other.Write(make([]byte, 3000))

	if len(doomed.reinjQ) == 0 || len(other.reinjQ) == 0 {
		t.Fatalf("scenario queued %d and %d copies, want some of each", len(doomed.reinjQ), len(other.reinjQ))
	}

	resetDone := false
	srv.pullHook = func(now time.Duration, p *Path, maxLen int) (chunk, bool) {
		ch, ok := srv.pullChunk(now, p, maxLen)
		if ok && resetDone && ch.streamID == 0 {
			t.Errorf("stream 0 chunk [%d,+%d) reinjection=%v scheduled after its RESET_STREAM", ch.offset, ch.length, ch.reinjection)
		}
		return ch, ok
	}
	doomed.Reset(0x10)
	resetDone = true
	if len(doomed.reinjQ) != 0 {
		t.Fatalf("%d copies of the reset stream left queued", len(doomed.reinjQ))
	}
	if len(other.reinjQ) == 0 {
		t.Fatal("reset dropped another stream's copies")
	}
	other.Write(make([]byte, 256<<10))
	pair.RunUntil(pair.Loop.Now() + 3*time.Second)
	if !other.acked.Contains(0, other.Buffered()) {
		t.Fatal("the surviving stream did not finish")
	}
}

// TestAllocGateReinjectPull gates the pull a send pass makes while the
// re-injection gate is open and nothing new is in flight: one cursor
// comparison per path and a queue with nothing eligible, on owned storage.
// (The scan used to re-walk the ledger and re-sort the queue on every pull,
// three allocations each.)
func TestAllocGateReinjectPull(t *testing.T) {
	if assert.Enabled {
		t.Skip("xlinkdebug: per-packet assertions allocate by design")
	}
	gate := true
	pair := reinjPair(t, ReinjectFramePriority, &gate)
	srv := pair.Server
	st := srv.Stream(0)
	st.WriteFrame(make([]byte, 4000), 0)
	st.Write(make([]byte, 4000)) // inside the initial window: all of it leaves at once
	if _, inFlight := trackedPackets(srv); inFlight == 0 || st.hasNewData() {
		t.Fatalf("want everything written in flight, have %d packets and unsent data=%v", inFlight, st.hasNewData())
	}
	p := fastestPath(t, srv)
	now := pair.Loop.Now()
	for ok := true; ok; { // take what may ride p; copies of p's own packets stay
		_, ok = srv.pullChunk(now, p, 1200)
	}
	if len(st.reinjQ) == 0 {
		t.Fatal("no candidate left queued")
	}
	pull := func() {
		if ch, ok := srv.pullChunk(now, p, 1200); ok {
			t.Fatalf("nothing should be eligible, got %+v", ch)
		}
	}
	examined := srv.reinjExamined
	if avg := testing.AllocsPerRun(100, pull); avg > 0 {
		t.Fatalf("pull with nothing new allocates %.1f/op, want 0", avg)
	}
	if srv.reinjExamined != examined {
		t.Fatalf("pulls with nothing new examined %d packets again", srv.reinjExamined-examined)
	}
}

// TestReinjectScanIndependentOfFinishedStreams: the work of a re-injection
// scan is the packets sent since the last one, once per stream that can
// still send — not every packet in flight once per stream ever opened.
func TestReinjectScanIndependentOfFinishedStreams(t *testing.T) {
	for _, finished := range []int{0, 256} {
		gate := false
		pair := reinjPair(t, ReinjectFramePriority, &gate)
		srv := pair.Server
		for i := 0; i < finished; i++ {
			s := srv.Stream(uint64(4 * i))
			s.Write(make([]byte, 100))
			s.Close()
		}
		pair.RunUntil(pair.Loop.Now() + time.Second)
		if n := len(srv.streamsInOrder()); n != 0 {
			t.Fatalf("%d of %d finished streams still in the send order", n, finished)
		}

		live := srv.Stream(uint64(4 * finished))
		live.Write(make([]byte, 8<<20))
		inFlight := 0
		for deadline := pair.Loop.Now() + 3*time.Second; inFlight < 200 && pair.Loop.Now() < deadline; {
			pair.RunUntil(pair.Loop.Now() + 5*time.Millisecond)
			_, inFlight = trackedPackets(srv)
		}
		if inFlight < 200 {
			t.Fatalf("only %d packets in flight", inFlight)
		}
		if srv.reinjExamined != 0 {
			t.Fatal("scanned while the gate was shut")
		}

		gate = true
		tracked, _ := trackedPackets(srv)
		p := fastestPath(t, srv)
		srv.pullChunk(pair.Loop.Now(), p, 1200)
		if got := srv.reinjExamined; got == 0 || got > uint64(tracked) {
			t.Fatalf("%d finished streams: first scan examined %d packets, want each of the %d tracked at most once", finished, got, tracked)
		}
		first := srv.reinjExamined
		srv.pullChunk(pair.Loop.Now(), p, 1200)
		if srv.reinjExamined != first {
			t.Fatalf("%d finished streams: a second scan re-examined %d packets", finished, srv.reinjExamined-first)
		}
	}
}
