// Package netem emulates network paths in the Mahimahi mpshell model used by
// the paper's controlled experiments (Appendix B): each direction of a path
// is a trace-driven link with a droptail queue, where every trace timestamp
// is an opportunity to deliver one MTU-sized packet, followed by a fixed
// propagation delay, with optional random ingress loss.
//
// Links run on a sim.Loop, so whole experiments execute in virtual time and
// are fully deterministic for a given seed.
package netem

import (
	"sync"
	"time"

	"repro/internal/assert"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DeliverFunc receives a packet that finished traversing a link.
//
// Ownership: data is a pooled packet buffer, on loan for the duration of the
// call only — it goes back to the pool, for any link's later Send, as soon as
// the call returns (and is overwritten at once under -tags xlinkdebug). A
// receiver that keeps the bytes must copy them. This mirrors the send side,
// where the link copies what it is handed (see transport.DatagramSender).
type DeliverFunc func(now time.Duration, data []byte)

// LinkConfig configures one direction of an emulated path.
type LinkConfig struct {
	// Trace is the packet-delivery trace driving the link's capacity.
	Trace *trace.Trace
	// Delay is the one-way propagation delay added after the packet
	// leaves the queue.
	Delay time.Duration
	// QueueBytes is the droptail queue limit. Zero means the Mahimahi
	// default of one bandwidth-delay-ish buffer (60 MTU).
	QueueBytes int
	// LossRate is the independent ingress drop probability in [0,1].
	LossRate float64
	// JitterMax adds a uniform random extra delay in [0, JitterMax) per
	// packet after the queue, which reorders arrivals — wireless links
	// under MAC retries do this routinely.
	JitterMax time.Duration
	// CorruptRate flips one random bit of a delivered packet with this
	// probability, exercising the receiver's packet authentication.
	CorruptRate float64
}

// DefaultQueueBytes is the droptail limit used when LinkConfig.QueueBytes is
// zero; 60 full-size packets, mirroring common mpshell configurations.
const DefaultQueueBytes = 60 * trace.MTU

// LinkStats counts link activity for experiment output.
type LinkStats struct {
	SentPackets    uint64 // packets accepted into the queue
	SentBytes      uint64
	DeliveredPkts  uint64 // packets handed to the receiver
	DeliveredBytes uint64
	DroppedPkts    uint64 // droptail + random loss + down-flush + drop model
	DroppedBytes   uint64
	CorruptedPkts  uint64
	DuplicatedPkts uint64 // extra copies injected by the duplication fault
	ReorderedPkts  uint64 // packets held back by the reordering fault
}

// DropFunc is a per-packet drop decision consulted in addition to the static
// LossRate. Fault scripts install stateful models here (Gilbert–Elliott
// burst loss, handshake-packet targeting); the packet bytes are visible so a
// model can target packet classes. Dropped packets count as DroppedPkts.
type DropFunc func(data []byte) bool

type queuedPacket struct {
	data       []byte
	enqueuedAt time.Duration
}

// Link is one direction of an emulated path. It is not safe for concurrent
// use; drive it from the owning sim.Loop only.
type Link struct {
	loop    *sim.Loop
	cfg     LinkConfig
	rng     *sim.RNG
	deliver DeliverFunc

	// queue[head:] are the packets waiting, oldest first. Dequeuing moves
	// head instead of re-slicing, so the array's front is not lost and Send
	// reuses it.
	queue      []queuedPacket
	head       int
	queueBytes int

	// Opportunity cursor into the unrolled trace stream.
	cycle   uint64
	idx     int
	pending bool // a delivery event is scheduled
	// onOpportunityFn is l.onOpportunity bound once, so arming the delivery
	// event does not build a new method value per opportunity.
	onOpportunityFn sim.Event
	// credit is unspent opportunity bytes.
	credit int

	// slots holds the packets that have left the queue and are waiting out
	// their propagation delay; the delivery event of each carries its index
	// (Fire), freeSlots the indices not in use. A slot is vacated before its
	// packet is delivered. A packet buffer belongs to exactly one of: the
	// queue, a slot, the deliver call in progress, a pool.
	slots     [][]byte
	freeSlots []int

	stats LinkStats
	down  bool // administratively down (interface off)

	// Runtime impairments, driven by fault scripts (internal/faults).
	dropFn       DropFunc
	extraDelay   time.Duration // added propagation delay (RTT spike)
	dupRate      float64       // probability a delivered packet is duplicated
	reorderRate  float64       // probability a delivered packet is held back
	reorderDelay time.Duration // how long held-back packets are delayed
}

// Packet buffers come from process-wide pools of fixed-size arrays, one per
// size class: one that fits an acknowledgement and one that fits any packet a
// delivery opportunity carries (DESIGN.md §19). A link holds a buffer only
// while its packet is queued, propagating or being delivered, so an idle link
// holds none, and a new session starts from the buffers the sessions before
// it gave back. The pools hold pointers to arrays, so Put boxes nothing; the
// collector empties them.
var (
	smallBufs sync.Pool // *[smallBuf]byte
	mtuBufs   sync.Pool // *[trace.MTU]byte
)

const smallBuf = 256

// getBuf returns a buffer of length n from the pool of its class.
func getBuf(n int) []byte {
	// A packet larger than an opportunity — nothing the transport builds —
	// gets a buffer of its own size, which putBuf does not keep.
	c := n
	switch {
	case n <= smallBuf:
		if b, ok := smallBufs.Get().(*[smallBuf]byte); ok {
			return b[:n]
		}
		c = smallBuf
	case n <= trace.MTU:
		if b, ok := mtuBufs.Get().(*[trace.MTU]byte); ok {
			return b[:n]
		}
		c = trace.MTU
	}
	// Pool refill: once per buffer the collector took.
	return make([]byte, n, c)
}

// putBuf gives a buffer the link is done with back to the pool of its class.
func putBuf(b []byte) {
	b = b[:cap(b)]
	if assert.Enabled {
		// Whoever kept the slice past its deliver call reads this, not the
		// next packet.
		for i := range b {
			b[i] = 0xdb
		}
	}
	switch len(b) {
	case smallBuf:
		smallBufs.Put((*[smallBuf]byte)(b))
	case trace.MTU:
		mtuBufs.Put((*[trace.MTU]byte)(b))
	}
}

// NewLink creates a link on loop delivering packets to deliver.
func NewLink(loop *sim.Loop, cfg LinkConfig, rng *sim.RNG, deliver DeliverFunc) *Link {
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = DefaultQueueBytes
	}
	if cfg.Trace == nil {
		cfg.Trace = trace.ConstantRate("default-10mbps", 10, time.Second)
	}
	l := &Link{loop: loop, cfg: cfg, rng: rng, deliver: deliver}
	l.onOpportunityFn = l.onOpportunity
	return l
}

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// QueueLen returns the number of queued packets.
func (l *Link) QueueLen() int { return len(l.queue) - l.head }

// SetDown administratively disables (true) or enables (false) the link.
// While down, all ingress packets are dropped, emulating an interface being
// switched off (Sec 6 "client's 4G/Wi-Fi is turned off"). Going down also
// flushes the queue: an interface that is switched off loses its buffer, so
// already-queued packets must not deliver afterwards. Flushed packets count
// as drops.
func (l *Link) SetDown(down bool) {
	if down && !l.down {
		flushed := l.queue[l.head:]
		l.queue, l.head = nil, 0
		l.queueBytes = 0
		l.credit = 0
		for _, qp := range flushed {
			l.stats.DroppedPkts++
			l.stats.DroppedBytes += uint64(len(qp.data))
			putBuf(qp.data)
		}
	}
	l.down = down
}

// IsDown reports whether the link is administratively down.
func (l *Link) IsDown() bool { return l.down }

// SetDropFunc installs (or, with nil, removes) a per-packet drop model
// evaluated on ingress in addition to the static LossRate.
func (l *Link) SetDropFunc(fn DropFunc) { l.dropFn = fn }

// SetExtraDelay adds d to the propagation delay of every subsequent
// delivery — the RTT-spike fault (bufferbloat, radio-layer retries).
func (l *Link) SetExtraDelay(d time.Duration) { l.extraDelay = d }

// SetDuplicate delivers an extra copy of a packet with probability rate,
// emulating link-layer retransmission duplicates.
func (l *Link) SetDuplicate(rate float64) { l.dupRate = rate }

// SetReorder holds a delivered packet back by extra with probability rate,
// letting later packets overtake it.
func (l *Link) SetReorder(rate float64, extra time.Duration) {
	l.reorderRate = rate
	l.reorderDelay = extra
}

// Send offers a packet to the link. It is dropped on loss, droptail
// overflow, or when the link is down; otherwise it is copied into a pooled
// buffer and delivered to the far end after queueing and propagation
// delay.
func (l *Link) Send(data []byte) {
	l.stats.SentPackets++
	l.stats.SentBytes += uint64(len(data))
	if l.down || (l.cfg.LossRate > 0 && l.rng != nil && l.rng.Bool(l.cfg.LossRate)) ||
		(l.dropFn != nil && l.dropFn(data)) {
		l.stats.DroppedPkts++
		l.stats.DroppedBytes += uint64(len(data))
		return
	}
	if l.queueBytes+len(data) > l.cfg.QueueBytes {
		l.stats.DroppedPkts++
		l.stats.DroppedBytes += uint64(len(data))
		return
	}
	buf := getBuf(len(data))
	copy(buf, data)
	if len(l.queue) == cap(l.queue) && 2*l.head >= len(l.queue) {
		// Full, and at least half of it already delivered: move the waiting
		// packets down instead of growing. Each move is paid for by the
		// dequeues before it, and the array stays within twice the deepest
		// queue.
		n := copy(l.queue, l.queue[l.head:])
		clear(l.queue[n:])
		l.queue, l.head = l.queue[:n], 0
	}
	l.queue = append(l.queue, queuedPacket{data: buf, enqueuedAt: l.loop.Now()})
	l.queueBytes += len(buf)
	if !l.pending {
		l.scheduleNext()
	}
}

// SendBatch offers pkts to the link in order, returning how many were
// accepted into the queue. Admission (loss, droptail, down) is evaluated
// per packet exactly as Send does, so a batched sender produces the same
// event sequence — same RNG draws, same queue occupancy at each admission,
// same first-enqueue delivery scheduling — as one that calls Send in a
// loop. The packets are copied on admission; the slice and its buffers are
// borrowed for the duration of the call only.
func (l *Link) SendBatch(pkts [][]byte) int {
	accepted := 0
	for _, d := range pkts {
		before := l.stats.DroppedPkts
		l.Send(d)
		if l.stats.DroppedPkts == before {
			accepted++
		}
	}
	return accepted
}

// opportunityTime returns the absolute time of the opportunity under the
// cursor.
func (l *Link) opportunityTime() time.Duration {
	tr := l.cfg.Trace
	period := tr.Period()
	ms := l.cycle*period + tr.DeliveriesMS[l.idx]
	return time.Duration(ms) * time.Millisecond
}

// advanceCursor moves to the next delivery opportunity.
func (l *Link) advanceCursor() {
	l.idx++
	if l.idx >= len(l.cfg.Trace.DeliveriesMS) {
		l.idx = 0
		l.cycle++
	}
}

// scheduleNext arms a delivery event for the head-of-queue packet at the
// first unused opportunity at or after now.
func (l *Link) scheduleNext() {
	now := l.loop.Now()
	for l.opportunityTime() < now {
		l.advanceCursor()
	}
	at := l.opportunityTime()
	l.pending = true
	l.loop.At(at, l.onOpportunityFn)
}

// onOpportunity consumes the cursor opportunity to deliver queued packets:
// it converts the opportunity to MTU bytes of credit, which models mixed
// packet sizes (a 40-byte ACK does not cost a whole opportunity).
func (l *Link) onOpportunity(now time.Duration) {
	l.pending = false
	l.advanceCursor() // this opportunity is consumed regardless
	if l.QueueLen() == 0 {
		l.credit = 0
		return
	}
	l.credit += trace.MTU
	for l.QueueLen() > 0 && l.credit >= len(l.queue[l.head].data) {
		l.credit -= len(l.queue[l.head].data)
		l.deliverHead()
	}
	if l.QueueLen() == 0 {
		l.credit = 0 // no banking capacity across idle periods
	}
	if l.QueueLen() > 0 {
		l.scheduleNext()
	}
}

// deliverHead dequeues the head packet and schedules its delivery after the
// propagation delay (plus jitter), applying bit corruption if configured.
func (l *Link) deliverHead() {
	pkt := l.queue[l.head]
	l.queue[l.head] = queuedPacket{}
	if l.head++; l.head == len(l.queue) {
		l.queue, l.head = l.queue[:0], 0
	}
	l.queueBytes -= len(pkt.data)
	l.stats.DeliveredPkts++
	l.stats.DeliveredBytes += uint64(len(pkt.data))
	data := pkt.data
	delay := l.cfg.Delay + l.extraDelay
	if l.cfg.JitterMax > 0 && l.rng != nil {
		delay += time.Duration(l.rng.Uniform(0, float64(l.cfg.JitterMax)))
	}
	if l.reorderRate > 0 && l.rng != nil && l.rng.Bool(l.reorderRate) {
		delay += l.reorderDelay
		l.stats.ReorderedPkts++
	}
	if l.cfg.CorruptRate > 0 && l.rng != nil && l.rng.Bool(l.cfg.CorruptRate) && len(data) > 0 {
		idx := l.rng.Intn(len(data))
		data[idx] ^= 1 << uint(l.rng.Intn(8))
		l.stats.CorruptedPkts++
	}
	if l.dupRate > 0 && l.rng != nil && l.rng.Bool(l.dupRate) {
		dup := getBuf(len(data))
		copy(dup, data)
		l.stats.DuplicatedPkts++
		l.stats.DeliveredPkts++
		l.stats.DeliveredBytes += uint64(len(dup))
		l.propagate(delay+2*time.Millisecond, dup)
	}
	l.propagate(delay, data)
}

// propagate parks a packet in a slot and schedules the slot's delivery.
func (l *Link) propagate(delay time.Duration, data []byte) {
	var slot int
	if n := len(l.freeSlots); n > 0 {
		slot = l.freeSlots[n-1]
		l.freeSlots = l.freeSlots[:n-1]
		l.slots[slot] = data
	} else {
		slot = len(l.slots)
		l.slots = append(l.slots, data)
	}
	l.loop.AtRecv(l.loop.Now()+delay, l, slot)
}

// Fire implements sim.Receiver: the packet in slot has arrived. The receiver
// borrows the buffer for the call; it is back in its pool afterwards.
func (l *Link) Fire(arrive time.Duration, slot int) {
	data := l.slots[slot]
	l.slots[slot] = nil
	l.freeSlots = append(l.freeSlots, slot)
	if l.deliver != nil {
		l.deliver(arrive, data)
	}
	putBuf(data)
}
