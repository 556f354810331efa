package transport

import (
	"testing"
	"time"

	"repro/internal/assert"
	"repro/internal/cc"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Benchmarks and alloc gates for the batched packet I/O plane (DESIGN.md
// §16). BenchmarkConnPacketsPerSec is the acceptance number of ISSUE 10:
// ns/packet of a receiver ingesting 16-packet batches versus the same 16
// packets delivered one wakeup each. The win is everything that runs per
// wakeup instead of per packet — the maybeSend pass, ACK assembly and
// sealing, loss-detection bookkeeping, and the timer re-arm.

// discardSender swallows outgoing datagrams so gates and benches can
// isolate transport-side work from the emulated network (netem copies every
// accepted packet, which would dominate an alloc gate).
type discardSender struct{}

func (discardSender) SendBatch(netIdx int, pkts [][]byte) int { return len(pkts) }

// benchBatchPair is benchPair with an explicit send batch size on both
// sides.
func benchBatchPair(tb testing.TB, batch int) *Pair {
	tb.Helper()
	params := wire.DefaultTransportParams()
	params.EnableMultipath = true
	ccfg := Config{Params: params, Seed: 1, MaxAckDelay: time.Millisecond, SendBatchSize: batch}
	scfg := Config{Params: params, Seed: 2, MaxAckDelay: time.Millisecond, SendBatchSize: batch}
	var got uint64
	scfg.OnStreamData = func(now time.Duration, s *RecvStream, data []byte, fin bool) {
		got += uint64(len(data))
	}
	loop := sim.NewLoop()
	pair := NewPair(loop, sim.NewRNG(7),
		TwoPathConfig(200, 200, 2*time.Millisecond, 6*time.Millisecond), ccfg, scfg)
	if err := pair.Start(); err != nil {
		tb.Fatal(err)
	}
	pair.RunUntil(500 * time.Millisecond)
	if !pair.Client.Established() || !pair.Server.Established() {
		tb.Fatal("bench pair did not establish")
	}
	return pair
}

var pingFrames = []wire.Frame{&wire.PingFrame{}}

// craftPings seals count fresh ack-eliciting 1-RTT packets carrying frames
// from the client's sealer toward the server on path p, consuming the
// client's real packet-number sequence so the server's truncated-PN decode
// stays in range. Buffers are reused from bufs; the sealed packets land in
// pkts.
func craftPings(c *Conn, p *Path, bufs, pkts [][]byte, count int, frames []wire.Frame) {
	for j := 0; j < count; j++ {
		pn := p.Space.NextPN()
		pkts[j] = sealShortInto(bufs[j][:0], c.txSealer, p.DCID, uint32(p.ID), pn, p.Space.LargestAcked(), frames)
		bufs[j] = pkts[j][:0]
	}
}

// BenchmarkConnPacketsPerSec measures receive-side cost per packet. Packet
// sealing runs off the clock (StopTimer); the timed region is exactly the
// ingest: 16 HandleDatagram wakeups for the unbatched baseline, one
// HandleDatagramBatch for batch16. Packets are minimal PING-bearers, so the
// per-wakeup overhead — not the AEAD — dominates, matching the ACK- and
// control-heavy workloads the batching targets.
func BenchmarkConnPacketsPerSec(b *testing.B) {
	for _, bc := range []struct {
		name  string
		batch int
	}{
		{"unbatched", 1},
		{"batch16", 16},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const group = 16
			pair := benchBatchPair(b, bc.batch)
			c, s := pair.Client, pair.Server
			s.sender = discardSender{} // isolate the receiver from netem copy cost
			p := c.paths[c.pathOrder[0]]
			bufs := make([][]byte, group)
			for i := range bufs {
				bufs[i] = make([]byte, 0, cc.MaxDatagramSize)
			}
			pkts := make([][]byte, group)
			now := pair.Loop.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += group {
				b.StopTimer()
				craftPings(c, p, bufs, pkts, group, pingFrames)
				now += time.Microsecond
				b.StartTimer()
				if bc.batch > 1 {
					s.HandleDatagramBatch(now, p.NetIdx, pkts)
				} else {
					for j := 0; j < group; j++ {
						s.HandleDatagram(now, p.NetIdx, pkts[j])
					}
				}
			}
		})
	}
}

// TestAllocGateBatchFill gates the send-side batch machinery at zero
// steady-state allocations: filling a full batch from the seal free list and
// flushing it must reuse the seal buffers, the per-path pending slice and
// the flush order scratch (scripts/check.sh runs every TestAllocGate*).
func TestAllocGateBatchFill(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state warmup")
	}
	pair := benchBatchPair(t, 16)
	c := pair.Client
	c.sender = discardSender{}
	p := c.paths[c.pathOrder[0]]
	now := pair.Loop.Now()
	fill := func() {
		c.batching = true
		for i := 0; i < 16; i++ {
			buf := c.nextSendBuf()
			c.dispatchPacket(now, p, buf[:64])
		}
		c.flushBatches(now)
		c.batching = false
	}
	for i := 0; i < 8; i++ { // warm the seal free list to its high-water mark
		fill()
	}
	if avg := testing.AllocsPerRun(100, fill); avg > 0 {
		t.Fatalf("batch fill/flush allocates %.1f/op warm, want 0", avg)
	}
}

// TestAllocGateBatchRecv gates the receive side: one 16-packet batch
// through HandleDatagramBatch — open, parse, record, coalesced ACK
// assembly, one maybeSend and one timer re-arm — must run on owned scratch.
// Every packet carries an ACK_MP for each of the server's paths, as the live
// plane's batches do, so the batch also runs the deferred loss detection:
// OnAckNoLoss per frame, one OnLossTimeout per path at batch end. Between
// batches the server writes a small chunk, so each batch acknowledges one
// packet in flight. The per-packet ingest is allocation-free, so is the
// ack-only response the batch elicits (it touches no packet record, DESIGN.md
// §18), and so is the timer re-arm: the batch moves the deadline later, which
// leaves the timer the Env holds alone (DESIGN.md §19). Measured 0; the gate
// is that plus one. The point of the gate: the bound is per BATCH, not per
// packet — losing the coalescing (16 responses instead of 1) or any reused
// scratch trips it immediately. Packet crafting inside the measured closure
// is itself allocation-free (sealing reuses bufs; see BenchmarkSealPacket).
func TestAllocGateBatchRecv(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state warmup")
	}
	if assert.Enabled {
		// The per-packet invariant checks box their arguments under
		// xlinkdebug; the gate measures the release-mode floor, and
		// check.sh runs it untagged.
		t.Skip("xlinkdebug: per-packet assertions allocate by design")
	}
	const group = 16
	pair := benchBatchPair(t, 16)
	c, s := pair.Client, pair.Server
	s.sender = discardSender{}
	p := c.paths[c.pathOrder[0]]
	bufs := make([][]byte, group)
	for i := range bufs {
		bufs[i] = make([]byte, 0, cc.MaxDatagramSize)
	}
	pkts := make([][]byte, group)
	frames := []wire.Frame{&wire.PingFrame{}}
	var acks []*wire.AckMPFrame
	for _, id := range s.pathOrder {
		ack := &wire.AckMPFrame{PathID: id, Ranges: make([]wire.AckRange, 1)}
		acks = append(acks, ack)
		frames = append(frames, ack)
	}
	st := s.OpenStream()
	chunk := make([]byte, 200)
	now := pair.Loop.Now()
	ingest := func() {
		st.Write(chunk)
		for _, ack := range acks {
			ack.Ranges[0] = wire.AckRange{Largest: s.paths[ack.PathID].Space.PeekPN() - 1}
		}
		craftPings(c, p, bufs, pkts, group, frames)
		now += time.Microsecond
		s.HandleDatagramBatch(now, p.NetIdx, pkts)
	}
	for i := 0; i < 8; i++ { // warm recv scratch, ack scratch, seal buffers, packet records
		ingest()
	}
	before := s.Stats()
	const gate = 1
	if avg := testing.AllocsPerRun(100, ingest); avg > gate {
		t.Fatalf("batched 16-packet receive allocates %.1f/batch warm, gate is %d", avg, gate)
	}
	after := s.Stats()
	if sent := after.StreamBytesSent - before.StreamBytesSent; sent != 101*uint64(len(chunk)) {
		t.Fatalf("server wrote %d stream bytes, want %d", sent, 101*len(chunk))
	}
	for _, id := range s.pathOrder {
		if s.paths[id].Space.HasUnacked() {
			t.Fatalf("path %d has packets in flight after the batches that acknowledge them", id)
		}
	}
}
