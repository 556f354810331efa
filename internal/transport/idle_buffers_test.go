package transport

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// passSender counts the packets handed to the network, so a test can tell
// how many one send pass sealed.
type passSender struct {
	inner DatagramSender
	sent  int
}

func (s *passSender) SendBatch(netIdx int, pkts [][]byte) int {
	s.sent += len(pkts)
	return s.inner.SendBatch(netIdx, pkts)
}

// liveHeap is the heap still reachable after two collections: the second
// one also empties what sync.Pool kept back from the first.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIdleConnectionHoldsNoBuffers: once a multi-MiB transfer is over, an
// open connection with nothing to send holds no send segment, its receiving
// end holds no receive segment, and its seal buffers number at most paths ×
// sendBatchSize — the most that can wait on pending batches at once — even
// after a single pass that sealed hundreds of packets. While each connection
// parked up to 32 released segments and kept one seal buffer per packet of
// its longest pass, this pair held 2 241 KiB; with the segments of both
// directions in a process-wide pool and the seal buffers back on their free
// list at every flush it holds about 700 KiB, most of it the emulated links
// and their rate traces. Gather buffers — runs crossing a segment boundary —
// are borrowed from a pool for the callback only; a per-connection gather
// scratch would keep the longest run it ever gathered.
func TestIdleConnectionHoldsNoBuffers(t *testing.T) {
	const (
		size     = 8 << 20
		tail     = 1 << 20
		maxBytes = 2241 << 10 / 3
	)
	base := liveHeap()
	ccfg, scfg := defaultMPConfig()
	var received uint64
	var rs *RecvStream
	gathered := 0 // runs that crossed a segment boundary
	clientOnData := func(_ time.Duration, s *RecvStream, data []byte, _ bool) {
		if off := s.delivered - uint64(len(data)); len(data) > 0 && off/segSize != (s.delivered-1)/segSize {
			gathered++
		}
		rs = s
		received += uint64(len(data))
	}
	pair := NewPair(sim.NewLoop(), sim.NewRNG(28), TwoPathConfig(200, 100, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	pair.Client.SetOnStreamData(clientOnData)
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(time.Second)
	srv := pair.Server
	if !srv.Established() {
		t.Fatal("handshake did not complete")
	}
	counter := &passSender{inner: srv.sender}
	srv.sender = counter

	s := srv.OpenStream()
	s.Write(make([]byte, size))
	pair.RunUntil(10 * time.Second)
	if received != size {
		t.Fatalf("received %d of %d bytes", received, size)
	}

	// One pass with a large window and plenty queued: many more packets than
	// paths × sendBatchSize wait on pending batches in the course of it.
	srv.inSend = true
	s.Write(make([]byte, tail))
	s.Close()
	srv.inSend = false
	before := counter.sent
	srv.maybeSend(pair.Loop.Now())
	pass := counter.sent - before
	if pass <= 300 {
		t.Fatalf("the pass sealed %d packets; it must outgrow a full batch on every path many times over", pass)
	}
	pair.RunUntil(20 * time.Second)
	if received != size+tail {
		t.Fatalf("received %d of %d bytes", received, size+tail)
	}

	if srv.Closed() || pair.Client.Closed() {
		t.Fatal("the connection must be open and idle, not closed")
	}
	if st := srv.Stats(); st.SendBufferedBytes != 0 || s.data.segs != nil {
		t.Fatalf("idle server buffers %d bytes in %d segments", st.SendBufferedBytes, len(s.data.segs))
	}
	if st := pair.Client.Stats(); st.RecvBufferedBytes != 0 || rs.data.segs != nil || gathered == 0 {
		t.Fatalf("idle client buffers %d bytes in %d receive segments (%d runs gathered)", st.RecvBufferedBytes, len(rs.data.segs), gathered)
	}
	for _, c := range []*Conn{pair.Client, srv} {
		if bound := len(c.paths) * sendBatchSize; len(c.sealFree) > bound {
			t.Fatalf("%d seal buffers parked, bound %d paths × %d", len(c.sealFree), len(c.paths), sendBatchSize)
		}
	}
	held := liveHeap() - base
	runtime.KeepAlive(pair)
	t.Logf("pass of %d packets; %d seal buffers; idle pair holds %d KiB", pass, len(srv.sealFree), held>>10)
	if held > maxBytes {
		t.Fatalf("an idle pair holds %d KiB, want at most %d KiB", held>>10, maxBytes>>10)
	}
}
