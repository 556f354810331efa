// Package recovery implements per-path loss detection in the RFC 9002
// style: sent-packet tracking per packet number space (XLINK keeps one
// space per path, Sec 6), ACK processing with RTT sampling, packet- and
// time-threshold loss declaration, and probe timeouts with exponential
// backoff.
package recovery

import (
	"time"

	"repro/internal/assert"
	"repro/internal/cc"
	"repro/internal/wire"
)

// Loss detection constants from RFC 9002 §6.1.
const (
	// PacketThreshold declares a packet lost when this many later packets
	// are acknowledged.
	PacketThreshold = 3
	// timeThresholdNum/Den express the 9/8 RTT time threshold.
	timeThresholdNum = 9
	timeThresholdDen = 8
)

// SentPacket records one transmitted packet awaiting acknowledgement.
type SentPacket struct {
	// PN is the packet number within the path's space.
	PN uint64
	// SentAt is the transmission time.
	SentAt time.Duration
	// Bytes is the full UDP payload size (for congestion accounting).
	Bytes int
	// AckEliciting reports whether the packet must be acknowledged.
	AckEliciting bool
	// Meta is opaque scheduler metadata (e.g. stream priority bookkeeping
	// for re-injection decisions).
	Meta any
	// LostTrigger attributes a loss declaration made by threshold
	// detection: "reordering" (packet threshold) or "time" (time
	// threshold). Packets bulk-declared by DeclareAllLost leave it empty;
	// the transport supplies the context ("pto", "evacuated") at its
	// trace emit site.
	LostTrigger string

	declaredLost bool
	acked        bool
	// pooled marks a record the Space handed out (Acquire) and takes back
	// once gc has trimmed it; records built by the caller are never recycled.
	pooled bool
}

// recycledPN is what a record's PN reads while it sits on the free list of an
// xlinkdebug build: no packet number reaches it (varints end at 2^62-1).
const recycledPN = 1 << 63

// Poisoner is implemented by a Meta that carries storage of its own to be
// recycled with the record: an xlinkdebug build calls Poison when the record
// enters the free list, so that a stale reader finds nothing to act on.
type Poisoner interface{ Poison() }

// AckResult reports the outcome of processing one ACK frame. The Acked and
// Lost slices alias per-Space scratch buffers, and the records they name may
// be recycled after that: both are valid until the next loss-detection call
// (OnAck, OnLossTimeout, DeclareAllLost, OnPTO) on the same Space and must be
// copied to be retained.
type AckResult struct {
	// Acked are newly acknowledged packets, ascending by PN.
	Acked []*SentPacket
	// Lost are packets newly declared lost, ascending by PN.
	Lost []*SentPacket
	// LatestRTT is the RTT sample taken, or 0 if the ack did not cover a
	// newly acknowledged largest packet.
	LatestRTT time.Duration
}

// Space tracks in-flight packets for one path's packet number space and
// runs loss detection over them.
type Space struct {
	rtt *cc.RTTEstimator

	// sent is the one ledger of tracked packets, ascending by PN; lookups
	// by packet number are binary searches over it (see search).
	sent         []*SentPacket
	largestAcked int64
	nextPN       uint64

	lossTime    time.Duration // earliest pending time-threshold loss, 0 = none
	ptoCount    int
	lastProbeAt time.Duration // when OnPTO last fired, anchoring backoff

	// Scratch buffers backing the slices returned from loss detection;
	// see AckResult for the ownership contract.
	ackedScratch []*SentPacket
	lostScratch  []*SentPacket

	// Record recycling (DESIGN.md §18). retired holds the pooled records gc
	// trimmed during the current loss-detection call, which the result of
	// that call may still name; the next such call moves them to free, where
	// Acquire finds them. peak is the ledger's high-water mark and bounds
	// free.
	retired []*SentPacket
	free    []*SentPacket
	peak    int

	// Counters for instrumentation.
	stats Stats
}

// Stats counts recovery activity on one path.
type Stats struct {
	SentPackets  uint64
	SentBytes    uint64
	AckedPackets uint64
	LostPackets  uint64
	LostBytes    uint64
	PTOs         uint64
}

// NewSpace creates a Space reporting RTT samples to rtt.
func NewSpace(rtt *cc.RTTEstimator) *Space {
	return &Space{rtt: rtt, largestAcked: -1}
}

// Stats returns a copy of the counters.
func (s *Space) Stats() Stats { return s.stats }

// NextPN allocates the next packet number.
func (s *Space) NextPN() uint64 {
	pn := s.nextPN
	s.nextPN++
	return pn
}

// PeekPN returns the packet number the next NextPN call will allocate.
func (s *Space) PeekPN() uint64 { return s.nextPN }

// LargestAcked returns the largest acknowledged PN, or -1.
func (s *Space) LargestAcked() int64 { return s.largestAcked }

// Acquire returns a blank record to fill in and pass to OnPacketSent: one
// recycled from a packet resolved earlier, whose Meta it keeps so that the
// caller's metadata and its storage are reused with it, or a new one when
// none is free. The Space recycles only records it handed out here.
func (s *Space) Acquire() *SentPacket {
	n := len(s.free)
	// Nothing to recycle: more packets are tracked than ever before.
	if n == 0 {
		return &SentPacket{pooled: true}
	}
	sp := s.free[n-1]
	s.free[n-1] = nil
	s.free = s.free[:n-1]
	*sp = SentPacket{Meta: sp.Meta, pooled: true}
	return sp
}

// reclaim frees the records the previous loss-detection call retired: its
// result has expired, so nothing names them any more. Every loss-detection
// entry point starts here.
func (s *Space) reclaim() {
	for i, sp := range s.retired {
		s.retired[i] = nil
		if len(s.free) >= s.peak {
			continue // never more spares than packets were ever tracked at once
		}
		if assert.Enabled {
			sp.PN = recycledPN
			if m, ok := sp.Meta.(Poisoner); ok {
				m.Poison()
			}
		}
		s.free = append(s.free, sp)
	}
	s.retired = s.retired[:0]
}

// assertLive checks, in xlinkdebug builds, that none of pkts sits on the free
// list.
func assertLive(pkts []*SentPacket, what string) {
	if assert.Enabled {
		for _, sp := range pkts {
			assert.That(sp.PN != recycledPN, "%s names a recycled packet record", what)
		}
	}
}

// OnPacketSent records a transmitted packet. PN must come from NextPN.
func (s *Space) OnPacketSent(sp *SentPacket) {
	if len(s.sent) > 0 {
		assert.MonotonicU64(s.sent[len(s.sent)-1].PN, sp.PN, "per-path packet number")
	}
	s.sent = append(s.sent, sp)
	if len(s.sent) > s.peak {
		s.peak = len(s.sent)
	}
	s.stats.SentPackets++
	s.stats.SentBytes += uint64(sp.Bytes)
}

// InFlight reports whether the packet is ack-eliciting and neither acked nor
// declared lost.
func (sp *SentPacket) InFlight() bool {
	return !sp.acked && !sp.declaredLost && sp.AckEliciting
}

// SentFrom returns the tracked packets whose PN is at least pn, ascending:
// a caller that remembers the last PN it saw resumes there instead of
// re-walking the ledger. Resolved packets stay in it until gc trims them, so
// filter with InFlight. The slice aliases the ledger and is valid until the
// next call that mutates the Space.
func (s *Space) SentFrom(pn uint64) []*SentPacket {
	from := s.sent[s.search(pn):]
	assertLive(from, "the ledger")
	return from
}

// HasUnacked reports whether any ack-eliciting packet is outstanding — the
// paper's exist_no_unack_pkts(p) predicate (Alg. 1 line 8), inverted.
func (s *Space) HasUnacked() bool {
	for _, sp := range s.sent {
		if sp.InFlight() {
			return true
		}
	}
	return false
}

// search returns the index in sent of the first tracked packet whose PN is
// at least pn, or len(sent) if there is none.
func (s *Space) search(pn uint64) int {
	lo, hi := 0, len(s.sent)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.sent[mid].PN < pn {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lossDelay returns the time threshold for declaring loss.
func (s *Space) lossDelay() time.Duration {
	rtt := s.rtt.Smoothed()
	if l := s.rtt.Latest(); l > rtt {
		rtt = l
	}
	d := rtt * timeThresholdNum / timeThresholdDen
	if d < cc.Granularity {
		d = cc.Granularity
	}
	return d
}

// OnAck processes an ACK/ACK_MP covering ranges, received at now with the
// peer's reported ackDelay. It returns newly acked and newly lost packets
// and resets the PTO backoff if progress was made. ranges must be in wire
// order, descending and disjoint, as the ACK parser yields them.
func (s *Space) OnAck(ranges []wire.AckRange, ackDelay time.Duration, now time.Duration) AckResult {
	return s.onAck(ranges, ackDelay, now, true)
}

// OnAckNoLoss processes an ACK like OnAck but defers loss detection:
// Result.Lost is always nil and no gc runs. Batch receive coalescing uses
// it so N acks in one datagram batch trigger one loss-detection pass (via
// OnLossTimeout at batch end) instead of N. Callers owe exactly one
// OnLossTimeout at the same now before the next timer re-arm, or the
// packet/time thresholds crossed by these acks go undetected until the
// loss timer fires.
func (s *Space) OnAckNoLoss(ranges []wire.AckRange, ackDelay time.Duration, now time.Duration) AckResult {
	return s.onAck(ranges, ackDelay, now, false)
}

// onAck is the shared ACK-processing body; detect selects whether the
// trailing loss-detection + gc pass runs now or is deferred to the caller.
func (s *Space) onAck(ranges []wire.AckRange, ackDelay time.Duration, now time.Duration, detect bool) AckResult {
	var res AckResult
	s.reclaim()
	if len(ranges) == 0 {
		return res
	}
	largest := ranges[0].Largest
	newlyAckedLargest := false
	res.Acked = s.ackedScratch[:0]
	// Ranges arrive in wire order — descending and disjoint — so walking
	// them last to first visits the ledger, and fills Acked, in ascending
	// PN order. Each range costs one binary search plus the tracked packets
	// it covers, however wide the peer made it.
	for i := len(ranges) - 1; i >= 0; i-- {
		r := ranges[i]
		for j := s.search(r.Smallest); j < len(s.sent) && s.sent[j].PN <= r.Largest; j++ {
			sp := s.sent[j]
			if sp.acked {
				continue
			}
			sp.acked = true
			if !sp.declaredLost {
				res.Acked = append(res.Acked, sp)
				s.stats.AckedPackets++
			}
			if sp.PN == largest {
				newlyAckedLargest = true
				res.LatestRTT = now - sp.SentAt
			}
		}
	}
	s.ackedScratch = res.Acked[:0]
	if len(res.Acked) == 0 {
		res.Acked = nil
		return res
	}
	if int64(largest) > s.largestAcked {
		s.largestAcked = int64(largest)
	}
	if newlyAckedLargest && res.LatestRTT > 0 {
		s.rtt.Update(res.LatestRTT, ackDelay)
	}
	s.ptoCount = 0
	if detect {
		res.Lost = s.detectLost(now)
		s.gc()
	}
	assertLive(res.Acked, "AckResult.Acked")
	assertLive(res.Lost, "AckResult.Lost")
	return res
}

// detectLost applies packet- and time-threshold loss detection. The
// returned slice aliases the Space's scratch buffer (see AckResult).
func (s *Space) detectLost(now time.Duration) []*SentPacket {
	if s.largestAcked < 0 {
		return nil
	}
	s.lossTime = 0
	delay := s.lossDelay()
	lost := s.lostScratch[:0]
	for _, sp := range s.sent {
		if sp.acked || sp.declaredLost || int64(sp.PN) > s.largestAcked {
			continue
		}
		pktLost := s.largestAcked-int64(sp.PN) >= PacketThreshold
		timeLost := now >= sp.SentAt+delay
		if pktLost || timeLost {
			sp.declaredLost = true
			if pktLost {
				sp.LostTrigger = "reordering"
			} else {
				sp.LostTrigger = "time"
			}
			lost = append(lost, sp)
			s.stats.LostPackets++
			s.stats.LostBytes += uint64(sp.Bytes)
		} else if s.lossTime == 0 || sp.SentAt+delay < s.lossTime {
			// Not lost yet, but will be at sentAt+delay unless acked.
			s.lossTime = sp.SentAt + delay
		}
	}
	s.lostScratch = lost[:0]
	if len(lost) == 0 {
		return nil
	}
	return lost
}

// OnLossTimeout runs time-threshold loss detection when the loss timer
// fires; it returns newly lost packets.
func (s *Space) OnLossTimeout(now time.Duration) []*SentPacket {
	s.reclaim()
	lost := s.detectLost(now)
	s.gc()
	assertLive(lost, "the lost list")
	return lost
}

// LossTime returns the deadline of the pending time-threshold loss, or 0.
func (s *Space) LossTime() time.Duration { return s.lossTime }

// PTODeadline returns when the probe timeout fires, or 0 if nothing is in
// flight. The timeout runs from the last in-flight packet sent; SentAt never
// decreases with PN, so that is the newest one and the scan stops there.
func (s *Space) PTODeadline() time.Duration {
	i := len(s.sent) - 1
	for i >= 0 && !s.sent[i].InFlight() {
		i--
	}
	if i < 0 {
		return 0
	}
	lastSent := s.sent[i].SentAt
	exp := s.ptoCount
	if exp > 6 {
		exp = 6 // cap the backoff so dead paths keep getting probed
	}
	backoff := time.Duration(1 << exp)
	anchor := lastSent
	if s.lastProbeAt > anchor {
		// A probe may not result in a tracked transmission (e.g. its
		// retransmittable data was moved to another path); anchoring on
		// the probe time keeps the deadline moving forward.
		anchor = s.lastProbeAt
	}
	return anchor + s.rtt.PTO()*backoff
}

// OnPTO handles a probe timeout at now: it backs off and returns up to two
// of the oldest unacked packets whose frames should be probed
// (retransmitted). The packets are not declared lost.
func (s *Space) OnPTO(now time.Duration) []*SentPacket {
	s.reclaim()
	s.ptoCount++
	s.stats.PTOs++
	s.lastProbeAt = now
	probes := s.lostScratch[:0]
	for _, sp := range s.sent {
		if sp.acked || sp.declaredLost || !sp.AckEliciting {
			continue
		}
		probes = append(probes, sp)
		if len(probes) == 2 {
			break
		}
	}
	s.lostScratch = probes[:0]
	if len(probes) == 0 {
		return nil
	}
	return probes
}

// DeclareAllLost marks every outstanding ack-eliciting packet as lost and
// returns them. It is used when a path is abandoned or demoted so its
// stranded data can be rescheduled onto surviving paths.
func (s *Space) DeclareAllLost(now time.Duration) []*SentPacket {
	s.reclaim()
	lost := s.lostScratch[:0]
	for _, sp := range s.sent {
		if sp.acked || sp.declaredLost || !sp.AckEliciting {
			continue
		}
		sp.declaredLost = true
		lost = append(lost, sp)
		s.stats.LostPackets++
		s.stats.LostBytes += uint64(sp.Bytes)
	}
	s.lossTime = 0
	s.gc()
	s.lostScratch = lost[:0]
	if len(lost) == 0 {
		return nil
	}
	return lost
}

// PTOCount returns the current backoff exponent.
func (s *Space) PTOCount() int { return s.ptoCount }

// gc trims fully resolved packets from the front of the send history,
// shifting the retained tail down in place. SentFrom can no longer reach a
// trimmed record, but the result of the loss-detection call gc runs in may
// name it, so pooled ones are retired here and freed by the next reclaim.
func (s *Space) gc() {
	i := 0
	for i < len(s.sent) && (s.sent[i].acked || s.sent[i].declaredLost) {
		if s.sent[i].pooled {
			s.retired = append(s.retired, s.sent[i])
		}
		i++
	}
	assertLive(s.sent, "the ledger")
	if i > 0 {
		n := copy(s.sent, s.sent[i:])
		for j := n; j < len(s.sent); j++ {
			s.sent[j] = nil
		}
		s.sent = s.sent[:n]
	}
}
