// Package mptcp implements the MPTCP baseline of Fig 13: a multi-path
// byte-stream transport with a single connection-level sequence space (so
// multi-path head-of-line blocking arises by construction), per-subflow
// congestion control and loss recovery, the min-RTT packet scheduler used
// by Linux MPTCP, and its opportunistic-retransmission + penalization
// mitigation (Raiciu et al., NSDI'12). Acknowledgements return on the
// subflow they acknowledge, as RFC 6824 prescribes.
//
// The model is sender(server) -> receiver(client) bulk transfer over
// emulated paths, which is exactly what the extreme-mobility experiment
// measures (request download time).
package mptcp

import (
	"sort"
	"time"

	"repro/internal/cc"
	"repro/internal/netem"
	"repro/internal/rangeset"
	"repro/internal/sim"
	"repro/internal/wire"
)

// MSS is the maximum segment payload.
const MSS = 1350

// Message types on the wire.
const (
	msgData byte = 1
	msgAck  byte = 2
)

// segment is one transmitted piece of the byte stream.
type segment struct {
	dataSeq uint64 // connection-level offset
	length  uint64
	// subflow and subflowSeq identify the (latest) transmission.
	subflow    int
	subflowSeq uint64
	sentAt     time.Duration
	acked      bool
}

// subflow is one TCP-like (SACK-enabled) path with its own congestion
// state.
type subflow struct {
	id   int
	rtt  *cc.RTTEstimator
	cc   cc.Controller
	next uint64 // next subflow sequence number

	// largestAcked is the highest SACKed subflow sequence (-1 none).
	largestAcked int64

	// outstanding maps subflowSeq -> segment for RTT sampling and loss.
	outstanding map[uint64]*segment

	penalizedAt time.Duration
}

// Sender is the MPTCP server endpoint pushing Total bytes.
type Sender struct {
	loop  *sim.Loop
	send  func(netIdx int, data []byte)
	total uint64

	subflows []*subflow

	nextData uint64
	// rwnd is the receiver-advertised flow control limit (absolute data
	// offset); 0 means unlimited.
	rwnd uint64
	// rtxQ holds segments to retransmit (data-level).
	rtxQ []*segment
	// unacked segments ordered by dataSeq.
	unacked []*segment
	dataAck uint64

	done     bool
	DoneAt   time.Duration
	rtoTimer sim.Timer

	// Stats.
	SentBytes        uint64
	RtxBytes         uint64
	OpportunisticRtx uint64
	Penalizations    uint64
}

// NewSender creates a sender over nPaths subflows.
func NewSender(loop *sim.Loop, nPaths int, total uint64, alg cc.Algorithm,
	send func(netIdx int, data []byte)) *Sender {
	s := &Sender{loop: loop, send: send, total: total}
	for i := 0; i < nPaths; i++ {
		s.subflows = append(s.subflows, &subflow{
			id:           i,
			rtt:          cc.NewRTTEstimator(),
			cc:           cc.New(alg),
			largestAcked: -1,
			outstanding:  make(map[uint64]*segment),
		})
	}
	return s
}

// Done reports whether every byte was cumulatively acknowledged.
func (s *Sender) Done() bool { return s.done }

// Start begins transmission.
func (s *Sender) Start() { s.pump(s.loop.Now()) }

// pump sends as much as congestion windows allow, min-RTT first.
func (s *Sender) pump(now time.Duration) {
	if s.done {
		return
	}
	for {
		sf := s.pickSubflow()
		if sf == nil {
			break
		}
		seg := s.nextSegment()
		if seg == nil {
			break
		}
		s.transmit(now, sf, seg)
	}
	s.armRTO(now)
}

// pickSubflow returns the lowest-RTT subflow with window space.
func (s *Sender) pickSubflow() *subflow {
	var best *subflow
	for _, sf := range s.subflows {
		if !sf.cc.CanSend(MSS) {
			continue
		}
		if best == nil || sf.rtt.Smoothed() < best.rtt.Smoothed() {
			best = sf
		}
	}
	return best
}

// nextSegment returns the next segment to send: retransmissions first,
// then new data.
func (s *Sender) nextSegment() *segment {
	for len(s.rtxQ) > 0 {
		seg := s.rtxQ[0]
		s.rtxQ = s.rtxQ[1:]
		if seg.acked || seg.dataSeq+seg.length <= s.dataAck {
			continue
		}
		return seg
	}
	if s.nextData >= s.total {
		return nil
	}
	if s.rwnd > 0 && s.nextData >= s.rwnd {
		return nil // receiver flow control
	}
	length := uint64(MSS)
	if s.nextData+length > s.total {
		length = s.total - s.nextData
	}
	seg := &segment{dataSeq: s.nextData, length: length}
	s.nextData += length
	s.unacked = append(s.unacked, seg)
	return seg
}

// transmit sends a segment on a subflow with a fresh subflow sequence
// number (first transmission on that subflow, or a data-level copy).
func (s *Sender) transmit(now time.Duration, sf *subflow, seg *segment) {
	seg.subflow = sf.id
	seg.subflowSeq = sf.next
	sf.next++
	seg.sentAt = now
	sf.outstanding[seg.subflowSeq] = seg
	s.emit(now, sf, seg)
}

// emit serializes and sends a segment on a subflow.
func (s *Sender) emit(now time.Duration, sf *subflow, seg *segment) {
	var buf []byte
	buf = append(buf, msgData)
	buf = wire.AppendVarint(buf, seg.dataSeq)
	buf = wire.AppendVarint(buf, seg.subflowSeq)
	buf = wire.AppendVarint(buf, seg.length)
	buf = append(buf, make([]byte, seg.length)...)
	sf.cc.OnPacketSent(now, len(buf))
	s.send(sf.id, buf)
	s.SentBytes += seg.length
}

// HandleDatagram processes an arriving ACK. netIdx names the subflow the
// ack arrived on (MPTCP acks use the original subflow).
func (s *Sender) HandleDatagram(now time.Duration, netIdx int, data []byte) {
	if s.done || len(data) < 2 || data[0] != msgAck {
		return
	}
	pos := 1
	sfID := int(data[pos])
	pos++
	if sfID < 0 || sfID >= len(s.subflows) {
		return
	}
	sf := s.subflows[sfID]
	rangeCount, n, err := wire.ParseVarint(data[pos:])
	if err != nil {
		return
	}
	pos += n
	var ranges [][2]uint64 // {largest, length-1}
	for i := uint64(0); i < rangeCount; i++ {
		largest, n, err := wire.ParseVarint(data[pos:])
		if err != nil {
			return
		}
		pos += n
		span, n, err := wire.ParseVarint(data[pos:])
		if err != nil {
			return
		}
		pos += n
		ranges = append(ranges, [2]uint64{largest, span})
	}
	dataAck, n, err := wire.ParseVarint(data[pos:])
	if err != nil {
		return
	}
	pos += n
	if rwnd, _, err := wire.ParseVarint(data[pos:]); err == nil {
		if rwnd > s.rwnd {
			s.rwnd = rwnd
		}
	}
	s.onSubflowAck(now, sf, ranges)
	s.onDataAck(now, dataAck)
	s.mitigateHoL(now)
	s.pump(now)
}

// onSubflowAck applies SACK ranges ({largest, span} pairs: the range
// [largest-span, largest]) to a subflow, then runs packet-threshold loss
// detection against the largest acked sequence.
func (s *Sender) onSubflowAck(now time.Duration, sf *subflow, ranges [][2]uint64) {
	if len(ranges) == 0 {
		return
	}
	for _, r := range ranges {
		largest, span := r[0], r[1]
		for seq := largest - span; ; seq++ {
			if seg, ok := sf.outstanding[seq]; ok {
				delete(sf.outstanding, seq)
				sf.cc.OnPacketAcked(now, int(seg.length)+16, sf.rtt.Smoothed())
				if seg.subflow == sf.id && seg.subflowSeq == seq {
					sf.rtt.Update(now-seg.sentAt, 0)
				}
			}
			if seq == largest {
				break
			}
		}
		if int64(largest) > sf.largestAcked {
			sf.largestAcked = int64(largest)
		}
	}
	// Packet-threshold loss: anything 3+ behind the largest acked is
	// declared lost and recovered at the data level. Collect and sort the
	// sequence numbers first so the retransmission queue order does not
	// depend on map iteration order.
	var lostSeqs []uint64
	for seq := range sf.outstanding {
		if sf.largestAcked-int64(seq) >= 3 {
			lostSeqs = append(lostSeqs, seq)
		}
	}
	sort.Slice(lostSeqs, func(i, j int) bool { return lostSeqs[i] < lostSeqs[j] })
	for _, seq := range lostSeqs {
		seg := sf.outstanding[seq]
		delete(sf.outstanding, seq)
		sf.cc.OnPacketLost(now, seg.sentAt, int(seg.length)+16)
		if !seg.acked && seg.dataSeq+seg.length > s.dataAck {
			s.rtxQ = append(s.rtxQ, seg)
			s.RtxBytes += seg.length
		}
	}
}

// onDataAck advances the connection-level cumulative ack.
func (s *Sender) onDataAck(now time.Duration, ack uint64) {
	if ack <= s.dataAck {
		return
	}
	s.dataAck = ack
	// Trim fully acked segments.
	i := 0
	for i < len(s.unacked) && s.unacked[i].dataSeq+s.unacked[i].length <= ack {
		s.unacked[i].acked = true
		i++
	}
	s.unacked = s.unacked[i:]
	if s.dataAck >= s.total && !s.done {
		s.done = true
		s.DoneAt = now
		s.stopRTO()
	}
}

// mitigateHoL applies opportunistic retransmission and penalization: when
// the connection-level ack is blocked by a segment stranded on a slower
// subflow, retransmit it on the fastest subflow and penalize the offender.
func (s *Sender) mitigateHoL(now time.Duration) {
	if len(s.unacked) == 0 {
		return
	}
	head := s.unacked[0]
	if head.acked || head.dataSeq > s.dataAck {
		return
	}
	blockingSF := s.subflows[head.subflow]
	fast := s.fastestSubflow()
	if fast == nil || fast.id == head.subflow {
		return
	}
	// The head segment is considered stranded if it has been outstanding
	// longer than the fast subflow's RTT.
	if now-head.sentAt < fast.rtt.Smoothed() {
		return
	}
	s.OpportunisticRtx++
	s.RtxBytes += head.length
	if fast.cc.CanSend(MSS) {
		s.transmit(now, fast, head)
	} else {
		s.rtxQ = append(s.rtxQ, head)
	}
	// Penalize the slow subflow at most once per its RTT.
	if now-blockingSF.penalizedAt > blockingSF.rtt.Smoothed() {
		blockingSF.penalizedAt = now
		blockingSF.cc.OnPacketLost(now, head.sentAt, 0)
		s.Penalizations++
	}
}

// fastestSubflow returns the lowest-RTT subflow.
func (s *Sender) fastestSubflow() *subflow {
	var best *subflow
	for _, sf := range s.subflows {
		if best == nil || sf.rtt.Smoothed() < best.rtt.Smoothed() {
			best = sf
		}
	}
	return best
}

// stopRTO cancels the retransmission timeout, if pending, and forgets its
// handle: a stopped or fired event's node goes back to the process-wide
// pool, where a loop on another goroutine may take it, so a kept handle must
// not be checked again (sim.Timer).
func (s *Sender) stopRTO() {
	s.rtoTimer.Stop()
	s.rtoTimer = sim.Timer{}
}

// armRTO schedules the retransmission timeout for the earliest outstanding
// segment.
func (s *Sender) armRTO(now time.Duration) {
	s.stopRTO()
	if s.done {
		return
	}
	var earliest time.Duration
	for _, sf := range s.subflows {
		// Map order cannot matter: a minimum is the same in any order.
		for _, seg := range sf.outstanding {
			d := seg.sentAt + 2*sf.rtt.PTO()
			if earliest == 0 || d < earliest {
				earliest = d
			}
		}
	}
	if earliest == 0 {
		return
	}
	if earliest <= now {
		earliest = now + cc.Granularity
	}
	s.rtoTimer = s.loop.At(earliest, s.onRTO)
}

// onRTO handles a retransmission timeout: expired segments are freed from
// the window and queued for data-level retransmission on whichever subflow
// has room; the timed-out subflow collapses to slow start.
func (s *Sender) onRTO(now time.Duration) {
	s.rtoTimer = sim.Timer{} // fired: its node is no longer this sender's
	for _, sf := range s.subflows {
		var expired []*segment
		for _, seg := range sf.outstanding {
			if now >= seg.sentAt+2*sf.rtt.PTO() {
				expired = append(expired, seg)
			}
		}
		// Map iteration order leaks into rtxQ; restore sequence order.
		sort.Slice(expired, func(i, j int) bool { return expired[i].subflowSeq < expired[j].subflowSeq })
		if len(expired) == 0 {
			continue
		}
		for _, seg := range expired {
			delete(sf.outstanding, seg.subflowSeq)
			sf.cc.OnPacketLost(now, seg.sentAt, int(seg.length)+16)
			if !seg.acked && seg.dataSeq+seg.length > s.dataAck {
				s.rtxQ = append(s.rtxQ, seg)
				s.RtxBytes += seg.length
			}
		}
		sf.cc.OnRetransmissionTimeout(now)
	}
	s.pump(now)
}

// Receiver is the MPTCP client endpoint.
type Receiver struct {
	loop *sim.Loop
	send func(netIdx int, data []byte)

	received  rangeset.Set
	delivered uint64
	rx        map[int]*rxSubflow
	// Window returns the current flow-control limit (absolute offset);
	// nil means unlimited.
	Window func() uint64
	// OnDeliver observes in-order delivered byte counts (player feed).
	OnDeliver func(now time.Duration, n uint64)
}

// NewReceiver creates a receiver.
func NewReceiver(loop *sim.Loop, send func(netIdx int, data []byte)) *Receiver {
	return &Receiver{loop: loop, send: send}
}

// HandleDatagram processes a DATA packet and acks it on the same subflow.
func (r *Receiver) HandleDatagram(now time.Duration, netIdx int, data []byte) {
	if len(data) < 2 || data[0] != msgData {
		return
	}
	pos := 1
	dataSeq, n, err := wire.ParseVarint(data[pos:])
	if err != nil {
		return
	}
	pos += n
	subflowSeq, n, err := wire.ParseVarint(data[pos:])
	if err != nil {
		return
	}
	pos += n
	length, _, err := wire.ParseVarint(data[pos:])
	if err != nil {
		return
	}
	r.received.Add(dataSeq, dataSeq+length)
	newDelivered := r.received.CoveredPrefix(r.delivered)
	if newDelivered > r.delivered {
		n := newDelivered - r.delivered
		r.delivered = newDelivered
		if r.OnDeliver != nil {
			r.OnDeliver(now, n)
		}
	}
	// Ack on the arrival subflow: cumulative subflow ack + data ack.
	// The subflow cumulative ack is simply subflowSeq+1 when in order;
	// we track per-subflow contiguity.
	r.ackSubflow(now, netIdx, subflowSeq)
}

// rxSubflow tracks per-subflow receive state for cumulative acks.
type rxSubflow struct {
	received rangeset.Set
}

// ackSubflow records a subflow sequence number and emits an ACK carrying
// both the subflow cumulative ack and the connection-level data ack.
func (r *Receiver) ackSubflow(now time.Duration, netIdx int, seq uint64) {
	if r.rx == nil {
		r.rx = make(map[int]*rxSubflow)
	}
	sf := r.rx[netIdx]
	if sf == nil {
		sf = &rxSubflow{}
		r.rx[netIdx] = sf
	}
	sf.received.Add(seq, seq+1)
	// SACK the highest 16 ranges plus the data-level cumulative ack.
	all := sf.received.All()
	maxRanges := 16
	if len(all) < maxRanges {
		maxRanges = len(all)
	}
	var buf []byte
	buf = append(buf, msgAck, byte(netIdx))
	buf = wire.AppendVarint(buf, uint64(maxRanges))
	for i := len(all) - 1; i >= len(all)-maxRanges; i-- {
		largest := all[i].End - 1
		span := all[i].End - 1 - all[i].Start
		buf = wire.AppendVarint(buf, largest)
		buf = wire.AppendVarint(buf, span)
	}
	buf = wire.AppendVarint(buf, r.delivered)
	rwnd := uint64(wire.MaxVarint)
	if r.Window != nil {
		rwnd = r.Window()
	}
	buf = wire.AppendVarint(buf, rwnd)
	r.send(netIdx, buf)
}

// Download runs a complete transfer of total bytes over the network and
// returns the completion time (or deadline if unfinished).
func Download(loop *sim.Loop, nw *netem.Network, total uint64, alg cc.Algorithm,
	deadline time.Duration, onDeliver func(now time.Duration, n uint64)) (time.Duration, bool) {
	return DownloadPaced(loop, nw, total, alg, deadline, 0, 0, onDeliver)
}

// DownloadPaced is Download with receiver-side pacing: the receiver plays
// the content out at bitrateBps and advertises a flow-control window of
// aheadBytes beyond the playhead — how a video player throttles an MPTCP
// connection (Appendix B's player over MPTCP). bitrateBps 0 disables
// pacing.
func DownloadPaced(loop *sim.Loop, nw *netem.Network, total uint64, alg cc.Algorithm,
	deadline time.Duration, bitrateBps uint64, aheadBytes uint64,
	onDeliver func(now time.Duration, n uint64)) (time.Duration, bool) {
	sender := NewSender(loop, len(nw.Paths), total, alg, nw.ServerSend)
	receiver := NewReceiver(loop, nw.ClientSend)
	receiver.OnDeliver = onDeliver
	if bitrateBps > 0 && aheadBytes > 0 {
		var playStart time.Duration
		started := false
		prev := receiver.OnDeliver
		receiver.OnDeliver = func(now time.Duration, n uint64) {
			if !started {
				started = true
				playStart = now
			}
			if prev != nil {
				prev(now, n)
			}
		}
		receiver.Window = func() uint64 {
			if !started {
				return aheadBytes
			}
			played := uint64(float64(loop.Now()-playStart) / float64(time.Second) * float64(bitrateBps) / 8)
			if played > total {
				played = total
			}
			return played + aheadBytes
		}
		// Periodically re-advertise the window as playback frees space;
		// otherwise a sender blocked on rwnd would deadlock with an idle
		// receiver.
		var tick func(now time.Duration)
		tick = func(now time.Duration) {
			if sender.Done() || now >= deadline {
				return
			}
			receiver.ackSubflow(now, 0, 0)
			loop.After(100*time.Millisecond, tick)
		}
		loop.After(100*time.Millisecond, tick)
	}
	nw.Attach(
		func(now time.Duration, pathIdx int, data []byte) {
			receiver.HandleDatagram(now, pathIdx, data)
		},
		func(now time.Duration, pathIdx int, data []byte) {
			sender.HandleDatagram(now, pathIdx, data)
		})
	sender.Start()
	loop.RunUntil(deadline)
	if sender.Done() {
		return sender.DoneAt, true
	}
	return deadline, false
}
