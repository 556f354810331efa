package transport

import (
	"testing"
	"time"

	"repro/internal/assert"
	"repro/internal/cc"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Benchmarks and alloc gates for the batched packet I/O plane (DESIGN.md
// §16). BenchmarkConnPacketsPerSec measures ns/packet of a receiver taking
// 16-datagram runs under one Hold, as a live shard turn does, versus the
// same 16 datagrams each with its own send pass. The difference is what
// runs once per turn instead of once per datagram — the maybeSend pass, ACK
// assembly and sealing, and the timer re-arm.

// discardSender swallows outgoing datagrams so gates and benches can
// isolate transport-side work from the emulated network (netem copies every
// accepted packet, which would dominate an alloc gate).
type discardSender struct{}

func (discardSender) SendBatch(netIdx int, pkts [][]byte) int { return len(pkts) }

// benchBatchPair is an established two-path pair on fast links with a 1 ms
// ACK delay.
func benchBatchPair(tb testing.TB) *Pair {
	tb.Helper()
	params := wire.DefaultTransportParams()
	params.EnableMultipath = true
	ccfg := Config{Params: params, Seed: 1, MaxAckDelay: time.Millisecond}
	scfg := Config{Params: params, Seed: 2, MaxAckDelay: time.Millisecond}
	var got uint64
	serverOnData := func(now time.Duration, s *RecvStream, data []byte, fin bool) {
		got += uint64(len(data))
	}
	loop := sim.NewLoop()
	pair := NewPair(loop, sim.NewRNG(7),
		TwoPathConfig(200, 200, 2*time.Millisecond, 6*time.Millisecond), ccfg, scfg)
	pair.Server.SetOnStreamData(serverOnData)
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
// sealing and the clock's advance run off the clock (StopTimer); the timed
// region is exactly the ingest: 16 HandleDatagram calls, each with its own
// send pass for unbatched, and under one Hold and Release for held16.
// Packets are minimal PING-bearers, so the per-pass overhead — not the AEAD
// — dominates, matching the ACK- and control-heavy workloads a turn
// coalesces.
func BenchmarkConnPacketsPerSec(b *testing.B) {
	for _, bc := range []struct {
		name string
		held bool
	}{
		{"unbatched", false},
		{"held16", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const group = 16
			pair := benchBatchPair(b)
			c, s := pair.Client, pair.Server
			s.sender = discardSender{} // isolate the receiver from netem copy cost
			p := c.paths[0]
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
				pair.RunUntil(now)
				b.StartTimer()
				if bc.held {
					s.Hold()
				}
				for j := 0; j < group; j++ {
					s.HandleDatagram(now, p.NetIdx, pkts[j])
				}
				if bc.held {
					s.Release()
				}
			}
		})
	}
}

// TestAllocGateBatchFill gates the send-side batch machinery at zero
// steady-state allocations: sealing a full batch through emit inside a send
// pass, which flushes it at sendBatchSize, must reuse the seal buffers, the
// per-path pending slice and the flush order scratch (scripts/check.sh runs
// every TestAllocGate*).
func TestAllocGateBatchFill(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state warmup")
	}
	pair := benchBatchPair(t)
	c := pair.Client
	c.sender = discardSender{}
	p := c.paths[0]
	now := pair.Loop.Now()
	fill := func() {
		c.inSend = true
		for i := 0; i < sendBatchSize; i++ {
			c.emit(now, p, pingFrames, nil, "1rtt")
		}
		c.inSend = false
		if len(p.batchPend) != 0 {
			t.Fatalf("%d packets left pending after a full batch", len(p.batchPend))
		}
		c.flushBatches(now)
	}
	for i := 0; i < 8; i++ { // warm the seal free list to its high-water mark
		fill()
	}
	if avg := testing.AllocsPerRun(100, fill); avg > 0 {
		t.Fatalf("batch fill/flush allocates %.1f/op warm, want 0", avg)
	}
}

// TestAllocGateHeldRecv gates the receive side of a live turn: 16
// HandleDatagram calls under one Hold, then Release — open, parse, record,
// loss detection at each ACK, then one maybeSend with its ACK assembly and
// one timer re-arm — must run on owned scratch. Every packet carries an
// ACK_MP for each of the server's paths, as a live turn's datagrams do.
// Between runs the server writes a small chunk, so each run acknowledges one
// packet in flight. The per-packet ingest is allocation-free, so is the
// ack-only response the run elicits (it touches no packet record, DESIGN.md
// §18), and so is the timer re-arm: the run moves the deadline later, which
// leaves the timer the Env holds alone (DESIGN.md §19). Measured 0; the gate
// is that plus one, per RUN, not per packet, so any scratch that stops being
// reused trips it. Dropping the Hold does not: sixteen ack-only passes
// allocate nothing either, and TestHeldReceiveRunsOnePassAtRelease is what
// pins one pass per run. Packet crafting inside the measured closure is
// itself allocation-free (sealing reuses bufs; see BenchmarkSealPacket).
func TestAllocGateHeldRecv(t *testing.T) {
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
	pair := benchBatchPair(t)
	c, s := pair.Client, pair.Server
	s.sender = discardSender{}
	p := c.paths[0]
	bufs := make([][]byte, group)
	for i := range bufs {
		bufs[i] = make([]byte, 0, cc.MaxDatagramSize)
	}
	pkts := make([][]byte, group)
	frames := []wire.Frame{&wire.PingFrame{}}
	var acks []*wire.AckMPFrame
	for _, q := range s.paths {
		ack := &wire.AckMPFrame{PathID: q.ID, Ranges: make([]wire.AckRange, 1)}
		acks = append(acks, ack)
		frames = append(frames, ack)
	}
	st := s.OpenStream()
	chunk := make([]byte, 200)
	now := pair.Loop.Now()
	ingest := func() {
		st.Write(chunk)
		for _, ack := range acks {
			ack.Ranges[0] = wire.AckRange{Largest: s.Path(ack.PathID).Space.PeekPN() - 1}
		}
		craftPings(c, p, bufs, pkts, group, frames)
		now += time.Microsecond
		pair.RunUntil(now)
		s.Hold()
		for _, d := range pkts {
			s.HandleDatagram(now, p.NetIdx, d)
		}
		s.Release()
	}
	for i := 0; i < 8; i++ { // warm recv scratch, ack scratch, seal buffers, packet records
		ingest()
	}
	before := s.Stats()
	const gate = 1
	if avg := testing.AllocsPerRun(100, ingest); avg > gate {
		t.Fatalf("held 16-datagram receive allocates %.1f/run warm, gate is %d", avg, gate)
	}
	after := s.Stats()
	if sent := after.StreamBytesSent - before.StreamBytesSent; sent != 101*uint64(len(chunk)) {
		t.Fatalf("server wrote %d stream bytes, want %d", sent, 101*len(chunk))
	}
	for _, q := range s.paths {
		if q.Space.HasUnacked() {
			t.Fatalf("path %d has packets in flight after the runs that acknowledge them", q.ID)
		}
	}
}

// countingSender counts SendBatch calls per interface and drops the
// datagrams.
type countingSender map[int]int

func (cs countingSender) SendBatch(netIdx int, pkts [][]byte) int {
	cs[netIdx]++
	return len(pkts)
}

// TestHeldReceiveRunsOnePassAtRelease pins Hold's contract (DESIGN.md §16,
// the live turn) on the transport itself. A held server with data queued
// takes a 16-datagram run whose ACK_MPs leave one of its packets
// PacketThreshold behind. Loss detection runs at the ACK, so the packet is
// declared lost while the connection is still held; nothing reaches the
// sender until Release, which makes one SendBatch per path it touches; a
// second Release owes nothing and sends nothing.
func TestHeldReceiveRunsOnePassAtRelease(t *testing.T) {
	const group = 16
	pair := benchBatchPair(t)
	c, s := pair.Client, pair.Server
	sent := countingSender{}
	s.sender = sent
	now := pair.Loop.Now()

	// Put data in flight and find the path that carries the most of it.
	st := s.OpenStream()
	first := map[uint64]uint64{}
	for _, q := range s.paths {
		first[q.ID] = q.Space.PeekPN()
	}
	st.Write(make([]byte, 12000))
	var lossy *Path
	for _, q := range s.paths {
		if lossy == nil || q.Space.PeekPN()-first[q.ID] > lossy.Space.PeekPN()-first[lossy.ID] {
			lossy = q
		}
	}
	lo, hi := first[lossy.ID], lossy.Space.PeekPN()-1
	if hi-lo < recovery.PacketThreshold {
		t.Fatalf("path %d sent packets %d..%d, want more than %d", lossy.ID, lo, hi, recovery.PacketThreshold)
	}

	s.Hold()
	st.Write(make([]byte, 200))
	clear(sent)
	lostBefore := lossy.LostPackets
	// Acknowledge everything on the path but its first packet, which falls
	// hi-lo ≥ PacketThreshold behind.
	ack := &wire.AckMPFrame{PathID: lossy.ID, Ranges: []wire.AckRange{{Smallest: lo + 1, Largest: hi}}}
	p := c.paths[0]
	bufs := make([][]byte, group)
	for i := range bufs {
		bufs[i] = make([]byte, 0, cc.MaxDatagramSize)
	}
	pkts := make([][]byte, group)
	craftPings(c, p, bufs, pkts, group, []wire.Frame{&wire.PingFrame{}, ack})
	for _, d := range pkts {
		s.HandleDatagram(now, p.NetIdx, d)
	}
	if len(sent) != 0 {
		t.Fatalf("a held connection sent before Release: %v", sent)
	}
	if got := lossy.LostPackets - lostBefore; got != 1 {
		t.Fatalf("%d packets declared lost before Release, want 1: loss detection did not run at the ACK", got)
	}

	s.Release()
	if len(sent) == 0 {
		t.Fatal("Release ran no send pass")
	}
	for netIdx, n := range sent {
		if n != 1 {
			t.Fatalf("Release made %d SendBatch calls on interface %d, want 1 per touched path", n, netIdx)
		}
	}
	clear(sent)
	s.Release()
	if len(sent) != 0 {
		t.Fatalf("a second Release sent: %v", sent)
	}
}
