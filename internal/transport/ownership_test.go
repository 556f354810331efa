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

// Tests for DESIGN.md §18: who owns a frame, who owns a packet record. The
// allocation gates hold the steady-state packet to zero allocations inside
// transport and wire; the ownership tests pin the rules that make reuse safe.

// quietEnv is an Env that allocates nothing: time moves when the test says
// so and Schedule hands back one shared no-op cancel, so that the emulator's
// timer handle is not in an allocation count.
type quietEnv struct{ now time.Duration }

var noopCancel = func() {}

func (e *quietEnv) Now() time.Duration { return e.now }

func (e *quietEnv) Schedule(time.Duration, func(time.Duration)) func() { return noopCancel }

// gateRig is an established single-path, multipath-negotiated pair whose
// server has been cut off from the emulator: it runs on a quietEnv and sends
// into a discardSender, and the test plays the client by sealing packets with
// the client's keys and packet numbers.
type gateRig struct {
	c, s   *Conn
	env    *quietEnv
	buf    []byte
	frames []wire.Frame
}

func newGateRig(t *testing.T) *gateRig {
	t.Helper()
	if testing.Short() {
		t.Skip("alloc gate needs steady-state warmup")
	}
	if assert.Enabled {
		t.Skip("xlinkdebug: per-packet assertions allocate by design")
	}
	r := newRig(t, nil)
	r.env = &quietEnv{now: r.env.now}
	r.s.env = r.env
	return r
}

// newRig builds the rig with the server still on the emulator's Env (r.env
// only carries the time the handshake ended at); tune, if set, adjusts the
// server's Config first.
func newRig(t *testing.T, tune func(scfg *Config)) *gateRig {
	t.Helper()
	params := wire.DefaultTransportParams()
	params.EnableMultipath = true
	ccfg := Config{Params: params, Seed: 1, MaxAckDelay: time.Millisecond}
	scfg := Config{Params: params, Seed: 2, MaxAckDelay: time.Millisecond}
	scfg.OnStreamData = func(time.Duration, *RecvStream, []byte, bool) {}
	scfg.OnQoE = func(time.Duration, wire.QoESignal) {}
	if tune != nil {
		tune(&scfg)
	}
	loop := sim.NewLoop()
	pair := NewPair(loop, sim.NewRNG(7),
		TwoPathConfig(200, 200, 2*time.Millisecond, 6*time.Millisecond)[:1], ccfg, scfg)
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(500 * time.Millisecond)
	if !pair.Server.Established() || !pair.Server.MultipathEnabled() || len(pair.Server.pathOrder) != 1 {
		t.Fatal("gate rig did not establish one multipath-negotiated path")
	}
	r := &gateRig{c: pair.Client, s: pair.Server, env: &quietEnv{now: loop.Now()}}
	r.s.sender = discardSender{}
	r.buf = make([]byte, 0, cc.MaxDatagramSize)
	return r
}

// deliver seals frames as the client's next packet and hands it to the server
// a millisecond later. Sealing reuses the rig's buffer and allocates nothing.
func (r *gateRig) deliver(frames ...wire.Frame) { r.deliverAfter(time.Millisecond, frames...) }

// deliverAfter is deliver with the time that passes first given.
func (r *gateRig) deliverAfter(d time.Duration, frames ...wire.Frame) {
	r.deliverPN(r.c.paths[0].Space.NextPN(), d, frames...)
}

// deliverPN is deliverAfter with the packet number chosen by the caller.
func (r *gateRig) deliverPN(pn uint64, d time.Duration, frames ...wire.Frame) {
	p := r.c.paths[0]
	r.frames = append(r.frames[:0], frames...)
	pkt := sealShortInto(r.buf[:0], r.c.txSealer, p.DCID, uint32(p.ID), pn, p.Space.LargestAcked(), r.frames)
	r.env.now += d
	r.s.HandleDatagram(r.env.now, p.NetIdx, pkt)
}

// fullChunk is the most stream data one packet carries.
func (r *gateRig) fullChunk() int {
	return cc.MaxDatagramSize - r.s.shortHeaderOverhead() - 8
}

// TestAllocGateRecvStreamPacket: a sealed MTU packet carrying one STREAM
// frame — open, parse into the decoder's slab, reassemble, deliver, every
// second one answered with an ack-only packet, timer re-armed — allocates
// nothing. (One run is one packet, so the receive segment §17 lets the
// garbage collector have every 32 KiB is below what AllocsPerRun resolves.)
func TestAllocGateRecvStreamPacket(t *testing.T) {
	r := newGateRig(t)
	sf := &wire.StreamFrame{StreamID: 0, Data: make([]byte, r.fullChunk()-16)}
	recv := func() {
		r.deliver(sf)
		sf.Offset += uint64(len(sf.Data))
	}
	for i := 0; i < 64; i++ {
		recv()
	}
	before := r.s.Stats()
	if avg := testing.AllocsPerRun(200, recv); avg != 0 {
		t.Fatalf("receiving a STREAM packet allocates %.1f", avg)
	}
	after := r.s.Stats()
	if got := after.RecvPackets - before.RecvPackets; got != 201 || r.s.recvStreams[0].delivered != sf.Offset {
		t.Fatalf("%d packets received, %d of %d bytes delivered", got, r.s.recvStreams[0].delivered, sf.Offset)
	}
	if after.SentPackets-before.SentPackets < 100 {
		t.Fatalf("only %d acks sent for 201 packets", after.SentPackets-before.SentPackets)
	}
}

// TestAllocGateSendAndAck gates the sending side of the steady state in the
// order it happens. With more than 200 records recycled into the record pool:
// a send pass that puts one full STREAM packet on the wire allocates nothing
// (its record comes from the pool); with those packets in flight,
// receiving an ACK_MP of 32 ranges and a QoE signal that acknowledges one of
// them — parse into the decoder's slabs, loss detection, congestion control,
// stream bookkeeping, the record retired, an empty send pass — allocates
// nothing; and a send pass with nothing to send allocates nothing.
func TestAllocGateSendAndAck(t *testing.T) {
	r := newGateRig(t)
	s := r.s
	space := s.paths[0].Space
	st := s.OpenStream()
	full := make([]byte, r.fullChunk())

	ack := &wire.AckMPFrame{PathID: 0, AckDelay: 100 * time.Microsecond, HasQoE: true,
		QoE: wire.QoESignal{CachedBytes: 1 << 20, CachedFrames: 90, BitrateBps: 8_000_000, FramerateFPS: 30}}
	ranges := make([]wire.AckRange, 0, 32)
	// ackOne acknowledges pn, padded to 32 ranges with packets resolved long
	// ago (as many as the packet numbers below pn leave room for).
	ackOne := func(pn uint64) {
		ranges = append(ranges[:0], wire.AckRange{Smallest: pn, Largest: pn})
		for low := int64(pn) - 300; len(ranges) < 32 && low >= 1; low -= 3 {
			ranges = append(ranges, wire.AckRange{Smallest: uint64(low - 1), Largest: uint64(low)})
		}
		ack.Ranges = ranges
		r.deliver(ack)
	}

	// Open the congestion window one acknowledged packet at a time, then put
	// 300 packets in flight at once and acknowledge them all: the pool now
	// holds the 300 records they rode on.
	for i := 0; i < 400; i++ {
		st.Write(full)
		ackOne(space.PeekPN() - 1)
	}
	first := space.PeekPN()
	st.Write(make([]byte, 300*len(full)))
	if sent := space.PeekPN() - first; sent != 300 {
		t.Fatalf("warm-up burst sent %d packets, want 300", sent)
	}
	for pn := first; pn < first+300; pn++ {
		ackOne(pn)
	}
	if space.HasUnacked() {
		t.Fatal("warm-up left packets in flight")
	}

	first = space.PeekPN()
	before := s.Stats()
	if avg := testing.AllocsPerRun(200, func() { st.Write(full) }); avg != 0 {
		t.Fatalf("a send pass with one full STREAM packet allocates %.1f", avg)
	}
	after := s.Stats()
	if pkts, size := after.SentPackets-before.SentPackets, after.SentBytes-before.SentBytes; pkts != 201 || size < 201*(cc.MaxDatagramSize-8) {
		t.Fatalf("201 writes sent %d packets of %d bytes, want 201 full ones", pkts, size)
	}

	next := first
	if avg := testing.AllocsPerRun(200, func() { ackOne(next); next++ }); avg != 0 {
		t.Fatalf("receiving an ACK_MP with 32 ranges and a QoE signal allocates %.1f", avg)
	}
	if len(ranges) != 32 || space.HasUnacked() || s.Stats().SentPackets != after.SentPackets {
		t.Fatalf("acks carried %d ranges, in flight afterwards %v, packets sent meanwhile %d",
			len(ranges), space.HasUnacked(), s.Stats().SentPackets-after.SentPackets)
	}

	if avg := testing.AllocsPerRun(200, func() { s.maybeSend(r.env.now) }); avg != 0 {
		t.Fatalf("a send pass with nothing to send allocates %.1f", avg)
	}
}

// TestTruncatedPacketIsNotHalfApplied: a packet whose first frame is a valid
// STREAM frame and whose second is cut short is dropped whole. The decoder
// parses the whole packet before any frame is applied, so nothing is
// delivered, the packet number is not recorded and no acknowledgement is
// owed — a retransmission of the same data in a well-formed packet is then
// accepted as new.
func TestTruncatedPacketIsNotHalfApplied(t *testing.T) {
	pair := establishedPair(t, 23)
	c, s := pair.Client, pair.Server
	var delivered int
	s.SetOnStreamData(func(_ time.Duration, _ *RecvStream, data []byte, _ bool) { delivered += len(data) })

	p := c.paths[0]
	sp := s.paths[0]
	good := (&wire.StreamFrame{StreamID: 0, Data: []byte("whole or not at all")}).Append(nil)
	second := (&wire.MaxStreamDataFrame{StreamID: 0, MaxStreamData: 1 << 30}).Append(nil)
	payload := append(append([]byte(nil), good...), second[:len(second)-1]...)
	if _, err := wire.ParseAll(payload); err == nil {
		t.Fatal("the crafted payload parses")
	}
	pn := p.Space.NextPN()
	recvBefore := sp.RecvPackets
	s.HandleDatagram(pair.Loop.Now(), p.NetIdx, sealShort(c.txSealer, p.DCID, uint32(p.ID), pn, p.Space.LargestAcked(), payload))

	if delivered != 0 || s.recvStreams[0] != nil {
		t.Fatalf("%d bytes of a malformed packet were delivered", delivered)
	}
	if sp.ackQueued || sp.RecvPackets != recvBefore {
		t.Fatalf("malformed packet %d was counted (packets %d -> %d) or owes an ack (%v)", pn, recvBefore, sp.RecvPackets, sp.ackQueued)
	}
	// Acknowledgements are built from recvPNs: as long as pn is not in it, no
	// later ACK covers the packet either.
	pair.RunUntil(pair.Loop.Now() + 200*time.Millisecond)
	if sp.recvPNs.Contains(pn, pn+1) {
		t.Fatalf("malformed packet %d was recorded as received", pn)
	}

	injectFrames(pair, &wire.StreamFrame{StreamID: 0, Data: []byte("whole or not at all")})
	if delivered != len("whole or not at all") {
		t.Fatalf("well-formed retransmission delivered %d bytes", delivered)
	}
}

// TestRecycledRecordCarriesItsMeta checks the shape of the one record: after a
// session, a record acquired from the pool is a recycled one, still carries
// the packetMeta it had, and that meta points back at it.
func TestRecycledRecordCarriesItsMeta(t *testing.T) {
	var got uint64
	pair := benchPair(t, &got)
	st := pair.Client.OpenStream()
	for i := 0; i < 64; i++ {
		roundTrip(pair, st, make([]byte, 1200))
	}
	sp := recovery.Acquire()
	meta, ok := sp.Meta.(*packetMeta)
	if !ok || got == 0 {
		t.Fatalf("the pool had no record to recycle after 64 round trips (%d bytes delivered)", got)
	}
	if meta.sp != sp {
		t.Fatal("a record's meta does not point back at it")
	}
}
