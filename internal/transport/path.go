package transport

import (
	"time"

	"repro/internal/assert"
	"repro/internal/cc"
	"repro/internal/rangeset"
	"repro/internal/recovery"
	"repro/internal/trace"
	"repro/internal/wire"
)

// PathStateLocal tracks the lifecycle of a path at one endpoint.
type PathStateLocal int

// Path lifecycle states.
const (
	// PathProbing means a PATH_CHALLENGE is outstanding.
	PathProbing PathStateLocal = iota
	// PathActive means the path is validated and usable for data.
	PathActive
	// PathStandbyLocal means the peer asked to deprioritize the path.
	PathStandbyLocal
	// PathClosed means the path was abandoned.
	PathClosed
)

// String returns the state name.
func (s PathStateLocal) String() string {
	switch s {
	case PathProbing:
		return "probing"
	case PathActive:
		return "active"
	case PathStandbyLocal:
		return "standby"
	default:
		return "closed"
	}
}

// Path is one bidirectional path of a connection, identified by the
// connection ID sequence number (Sec 6: "different paths are identified by
// the sequence number of connection IDs"). Each path carries its own packet
// number space, RTT estimator, congestion controller and loss recovery.
type Path struct {
	// ID is the CID sequence number identifying the path.
	ID uint64
	// NetIdx is the local network interface the path uses.
	NetIdx int
	// Tech labels the wireless technology for primary path selection.
	Tech trace.Technology

	// DCID is the destination CID stamped on packets sent on this path.
	DCID wire.ConnectionID

	State PathStateLocal

	RTT   *cc.RTTEstimator
	CC    cc.Controller
	Space *recovery.Space

	// largestRecvPN and related track the receive side of the space. An ACK
	// is queued by the first ack-eliciting packet it covers and leaves when
	// ackDue says so (DESIGN.md §20); ackRiding marks one that appendAcksFor
	// put into the packet being built, until settleAcks decides its fate.
	largestRecvPN     int64
	recvPNs           rangeset.Set
	ackElicitingCount int
	largestRecvTime   time.Duration
	ackQueued         bool
	ackNow            bool // an out-of-order arrival made the ACK due at once
	ackRiding         bool

	// challenge state.
	pendingChallenge [8]byte
	challengeSent    bool
	validatedPeer    bool // we validated the peer (got PATH_RESPONSE)

	// lastStatusSeq orders PATH_STATUS updates.
	lastStatusSeq uint64

	// Health tracking: a suspect path is excluded from data and ACK
	// carriage until it proves alive again (the quick local analogue of
	// the draft's PATH_STATUS standby signalling on degraded paths).
	suspect bool
	// advertisedStandby records that we told the peer this path is on
	// standby, so recovery can be advertised symmetrically.
	advertisedStandby bool
	lastRecvAt        time.Duration
	// lastAckAt is the last time packets sent on this path were
	// acknowledged — the sender-side liveness signal (acknowledgements
	// for this path's space may arrive on another path).
	lastAckAt time.Duration

	// Ack-assembly scratch (DESIGN.md §11). Per path, not per connection:
	// one outgoing packet may carry ack frames for several paths
	// (appendAcksFor), but each path contributes at most one, and the frame
	// is only referenced until that packet is serialized.
	ackRangesScratch []wire.AckRange
	ackScratch       wire.AckFrame
	ackMPScratch     wire.AckMPFrame

	// batchPend holds packets sealed for this path during the current
	// batched send pass (DESIGN.md §16), waiting for one SendBatch flush.
	// The buffers come off the connection's seal free list; the slice is
	// per-pass scratch whose capacity reaches SendBatchSize and is reused.
	batchPend [][]byte

	// Stats.
	SentBytes     uint64
	RecvBytes     uint64
	SentPackets   uint64
	RecvPackets   uint64
	ReinjectBytes uint64
	LostPackets   uint64
}

func newPath(id uint64, netIdx int, tech trace.Technology, alg cc.Algorithm) *Path {
	rtt := cc.NewRTTEstimator()
	return &Path{
		ID:            id,
		NetIdx:        netIdx,
		Tech:          tech,
		RTT:           rtt,
		CC:            cc.New(alg),
		Space:         recovery.NewSpace(rtt),
		largestRecvPN: -1,
		State:         PathProbing,
	}
}

// Usable reports whether the path can carry application data.
func (p *Path) Usable() bool { return p.State == PathActive && !p.suspect }

// DeliverTime returns RTT + variation, the paper's Eq. 1 term for this
// path.
func (p *Path) DeliverTime() time.Duration { return p.RTT.DeliverTime() }

// recordRecv updates receive-side state for an arriving packet and reports
// whether it is a duplicate.
func (p *Path) recordRecv(pn uint64, now time.Duration, ackEliciting bool) (dup bool) {
	assert.NonNegDur(now-p.lastRecvAt, "receive-time step")
	p.lastRecvAt = now
	p.suspect = false // the path is alive
	if p.recvPNs.Contains(pn, pn+1) {
		return true
	}
	p.recvPNs.Add(pn, pn+1)
	// RFC 9000 §13.2.1: a packet below the largest received fills a gap, one
	// beyond largest+1 opens one; either way the sender learns of it at once
	// rather than a delayed ACK later.
	outOfOrder := int64(pn) != p.largestRecvPN+1
	if int64(pn) > p.largestRecvPN {
		p.largestRecvPN = int64(pn)
		p.largestRecvTime = now
	}
	if ackEliciting {
		p.ackElicitingCount++
		p.ackQueued = true
		p.ackNow = p.ackNow || outOfOrder
	}
	return false
}

// ackDue reports whether the path's queued ACK must leave now, alone if
// nothing else is going out: ackElicitingThreshold packets wait for it, one of
// them arrived out of order, or the largest has waited maxAckDelay.
func (p *Path) ackDue(now, maxAckDelay time.Duration) bool {
	return p.ackElicitingCount >= ackElicitingThreshold || p.ackNow ||
		now >= p.largestRecvTime+maxAckDelay
}

// ackSent clears the queued ACK once a packet carrying it was sealed.
func (p *Path) ackSent() {
	p.ackQueued, p.ackNow, p.ackElicitingCount = false, false, 0
}

// buildAckRanges converts received PNs into wire ACK ranges (descending),
// capped at maxRanges. The returned slice aliases the path's scratch and is
// valid until the next call for this path.
func (p *Path) buildAckRanges(maxRanges int) []wire.AckRange {
	rs := p.recvPNs.All()
	if len(rs) == 0 {
		return nil
	}
	out := p.ackRangesScratch[:0]
	for i := len(rs) - 1; i >= 0 && len(out) < maxRanges; i-- {
		out = append(out, wire.AckRange{Smallest: rs[i].Start, Largest: rs[i].End - 1})
	}
	p.ackRangesScratch = out
	return out
}
