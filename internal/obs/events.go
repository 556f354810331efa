package obs

import (
	"strconv"
	"time"
)

// evIndex numbers the events of the taxonomy: it picks an event's spec and
// its emit counter without a string lookup.
type evIndex uint8

const (
	evPacketSent evIndex = iota
	evPacketReceived
	evPacketAcked
	evPacketLost
	evMetricsUpdated
	evPathAdded
	evPathValidated
	evPathState
	evPathAbandoned
	evConnState
	evScorecard
	evQoESignal
	evQoEDecision
	evReinjectSend
	evReinjectCancel
	evFECSymbolSent
	evFECSymbolReceived
	evFECRecovered
	evFECGiveUp
	evFECDecision
	evVideoFrameCached
	evVideoFramesDecoded
	evVideoPlaybackStart
	evVideoRebufferStart
	evVideoRebufferEnd
	evVideoFinished
	evBatchFlush
	evFaultInjected
	evAnomaly
	numEvents
)

// Field constructors for the spec table: an unsigned, signed (durations
// included), boolean or string data field.
func fu(key string) field { return field{key, kindU64} }
func fi(key string) field { return field{key, kindInt} }
func fb(key string) field { return field{key, kindBool} }
func fs(key string) field { return field{key, kindStr} }

// eventSpecs lists each event's name and data fields in rendering order.
// An emitter fills its record's numeric values in the order its numeric
// fields appear here, and its strings likewise.
var eventSpecs = [numEvents]eventSpec{
	evPacketSent:         {EvPacketSent, []field{fu("path"), fu("pn"), fi("bytes"), fs("kind")}},
	evPacketReceived:     {EvPacketReceived, []field{fi("net"), fi("bytes")}},
	evPacketAcked:        {EvPacketAcked, []field{fu("path"), fu("pn")}},
	evPacketLost:         {EvPacketLost, []field{fu("path"), fu("pn"), fi("bytes"), fs("trigger")}},
	evMetricsUpdated:     {EvMetricsUpdated, []field{fu("path"), fi("cwnd"), fi("in_flight"), fb("slow_start"), fi("srtt")}},
	evPathAdded:          {EvPathAdded, []field{fu("path"), fi("net"), fs("tech")}},
	evPathValidated:      {EvPathValidated, []field{fu("path")}},
	evPathState:          {EvPathState, []field{fu("path"), fs("state"), fs("reason")}},
	evPathAbandoned:      {EvPathAbandoned, []field{fu("path"), fs("reason")}},
	evConnState:          {EvConnState, []field{fs("old"), fs("new"), fu("code"), fs("reason")}},
	evScorecard:          {EvScorecard, nil},
	evQoESignal:          {EvQoESignal, []field{fu("cached_bytes"), fu("cached_frames")}},
	evQoEDecision:        {EvQoEDecision, []field{fi("dt"), fi("tth1"), fi("tth2"), fi("max_deliver"), fb("enable")}},
	evReinjectSend:       {EvReinjectSend, []field{fu("path"), fu("stream"), fu("offset"), fi("bytes")}},
	evReinjectCancel:     {EvReinjectCancel, []field{fu("stream"), fu("offset"), fi("bytes"), fs("reason")}},
	evFECSymbolSent:      {EvFECSymbolSent, []field{fu("window"), fu("stream"), fi("index"), fi("bytes")}},
	evFECSymbolReceived:  {EvFECSymbolReceived, []field{fu("window"), fi("index"), fi("bytes")}},
	evFECRecovered:       {EvFECRecovered, []field{fu("window"), fu("stream"), fu("offset"), fi("bytes")}},
	evFECGiveUp:          {EvFECGiveUp, []field{fu("window"), fs("reason")}},
	evFECDecision:        {EvFECDecision, []field{fi("dt"), fi("loss_ppm"), fi("k"), fi("repairs"), fb("protect")}},
	evVideoFrameCached:   {EvVideoFrameCached, []field{fu("bytes")}},
	evVideoFramesDecoded: {EvVideoFramesDecoded, []field{fu("frames")}},
	evVideoPlaybackStart: {EvVideoPlaybackStart, nil},
	evVideoRebufferStart: {EvVideoRebufferStart, []field{fi("count")}},
	evVideoRebufferEnd:   {EvVideoRebufferEnd, []field{fi("stall")}},
	evVideoFinished:      {EvVideoFinished, nil},
	evBatchFlush:         {EvBatchFlush, []field{fu("path"), fi("packets")}},
	evFaultInjected:      {EvFaultInjected, []field{fs("op"), fs("phase")}},
	evAnomaly:            {EvAnomaly, []field{fs("reason")}},
}

// Typed event emitters. Every method is nil-receiver-safe and takes only
// scalar arguments so the disabled (nil Origin) path performs no work and
// no allocations — the zero-overhead guarantee the transport hot paths
// rely on (see TestNoopTracerZeroAlloc). Each fills the record open hands
// it, in its spec's order, and commits it.

// PacketSent records a datagram leaving on a path. kind distinguishes
// "initial", "1rtt", "ack", "probe", "ctrl" and "close" packets.
func (o *Origin) PacketSent(now time.Duration, pathID, pn uint64, size int, kind string) {
	if o == nil {
		return
	}
	r := o.open(now, evPacketSent)
	r.u[0], r.u[1], r.u[2] = pathID, pn, uint64(size)
	r.s[0] = kind
	o.commit(r)
}

// PacketReceived records a datagram arriving on a network interface. It is
// emitted exactly where ConnStats.RecvPackets is incremented, so
// trace-derived receive counts reconcile with the counter.
func (o *Origin) PacketReceived(now time.Duration, netIdx, size int) {
	if o == nil {
		return
	}
	r := o.open(now, evPacketReceived)
	r.u[0], r.u[1] = uint64(netIdx), uint64(size)
	o.commit(r)
}

// PacketAcked records one packet newly acknowledged by the peer.
func (o *Origin) PacketAcked(now time.Duration, pathID, pn uint64) {
	if o == nil {
		return
	}
	r := o.open(now, evPacketAcked)
	r.u[0], r.u[1] = pathID, pn
	o.commit(r)
}

// PacketLost records one packet declared lost. trigger attributes the loss
// declaration ("reordering", "time", "pto", "evacuated").
func (o *Origin) PacketLost(now time.Duration, pathID, pn uint64, size int, trigger string) {
	if o == nil {
		return
	}
	r := o.open(now, evPacketLost)
	r.u[0], r.u[1], r.u[2] = pathID, pn, uint64(size)
	r.s[0] = trigger
	o.commit(r)
}

// MetricsUpdated records a congestion-controller state change on a path.
func (o *Origin) MetricsUpdated(now time.Duration, pathID uint64, cwnd, inFlight int, slowStart bool, srtt time.Duration) {
	if o == nil {
		return
	}
	r := o.open(now, evMetricsUpdated)
	r.u[0], r.u[1], r.u[2], r.u[3], r.u[4] = pathID, uint64(cwnd), uint64(inFlight), flag(slowStart), uint64(srtt)
	o.commit(r)
}

// PathAdded records a new path joining the connection.
func (o *Origin) PathAdded(now time.Duration, pathID uint64, netIdx int, tech string) {
	if o == nil {
		return
	}
	r := o.open(now, evPathAdded)
	r.u[0], r.u[1] = pathID, uint64(netIdx)
	r.s[0] = tech
	o.commit(r)
}

// PathValidated records PATH_RESPONSE completing validation of a path.
func (o *Origin) PathValidated(now time.Duration, pathID uint64) {
	if o == nil {
		return
	}
	r := o.open(now, evPathValidated)
	r.u[0] = pathID
	o.commit(r)
}

// PathStateChanged records a local path state transition with its cause
// ("suspect", "standby", "available", "peer-standby", ...).
func (o *Origin) PathStateChanged(now time.Duration, pathID uint64, state, reason string) {
	if o == nil {
		return
	}
	r := o.open(now, evPathState)
	r.u[0] = pathID
	r.s[0], r.s[1] = state, reason
	o.commit(r)
}

// PathAbandoned records a path leaving service permanently.
func (o *Origin) PathAbandoned(now time.Duration, pathID uint64, reason string) {
	if o == nil {
		return
	}
	r := o.open(now, evPathAbandoned)
	r.u[0] = pathID
	r.s[0] = reason
	o.commit(r)
}

// ConnStateChanged records a connection lifecycle transition. code and
// reason carry the close error when entering closing/draining/closed. A
// connection that ends closed must have traced its entry into closed with
// it; the chaos corpus and the transport's lifecycle tests check that.
func (o *Origin) ConnStateChanged(now time.Duration, oldState, newState string, code uint64, reason string) {
	if o == nil {
		return
	}
	r := o.open(now, evConnState)
	r.u[0] = code
	r.s[0], r.s[1], r.s[2] = oldState, newState, reason
	o.commit(r)
}

// QoESignal records a client QoE feedback arriving at the server-side
// controller.
func (o *Origin) QoESignal(now time.Duration, cachedBytes, cachedFrames uint64) {
	if o == nil {
		return
	}
	r := o.open(now, evQoESignal)
	r.u[0], r.u[1] = cachedBytes, cachedFrames
	o.commit(r)
}

// QoEDecision records one Alg. 1 double-threshold evaluation: the play-time
// left Δt, both thresholds, the Eq. 1 max delivery time it was compared
// against, and the verdict.
func (o *Origin) QoEDecision(now, dt, tth1, tth2, maxDeliver time.Duration, enable bool) {
	if o == nil {
		return
	}
	r := o.open(now, evQoEDecision)
	r.u[0], r.u[1], r.u[2], r.u[3], r.u[4] = uint64(dt), uint64(tth1), uint64(tth2), uint64(maxDeliver), flag(enable)
	o.commit(r)
}

// ReinjectSend records a re-injected chunk leaving on a path.
func (o *Origin) ReinjectSend(now time.Duration, pathID, streamID, offset uint64, size int) {
	if o == nil {
		return
	}
	r := o.open(now, evReinjectSend)
	r.u[0], r.u[1], r.u[2], r.u[3] = pathID, streamID, offset, uint64(size)
	o.commit(r)
}

// ReinjectCancel records a queued re-injection discarded unsent because its
// stream was reset (reason "reset"). A copy whose data the peer came to hold
// first leaves its queue without an event: that is how most candidates end.
func (o *Origin) ReinjectCancel(now time.Duration, streamID, offset uint64, size int, reason string) {
	if o == nil {
		return
	}
	r := o.open(now, evReinjectCancel)
	r.u[0], r.u[1], r.u[2] = streamID, offset, uint64(size)
	r.s[0] = reason
	o.commit(r)
}

// VideoFrameCached records the first video frame being fully buffered.
func (o *Origin) VideoFrameCached(now time.Duration, bytes uint64) {
	if o == nil {
		return
	}
	r := o.open(now, evVideoFrameCached)
	r.u[0] = bytes
	o.commit(r)
}

// VideoFramesDecoded records playback progress as a cumulative decoded
// frame count.
func (o *Origin) VideoFramesDecoded(now time.Duration, frames uint64) {
	if o == nil {
		return
	}
	r := o.open(now, evVideoFramesDecoded)
	r.u[0] = frames
	o.commit(r)
}

// VideoPlaybackStarted records startup completing.
func (o *Origin) VideoPlaybackStarted(now time.Duration) {
	if o == nil {
		return
	}
	o.commit(o.open(now, evVideoPlaybackStart))
}

// VideoRebufferStart records the player stalling. at is the model's exact
// buffer-exhaustion instant, which may precede the driving tick.
func (o *Origin) VideoRebufferStart(now time.Duration, count int) {
	if o == nil {
		return
	}
	r := o.open(now, evVideoRebufferStart)
	r.u[0] = uint64(count)
	o.commit(r)
}

// VideoRebufferEnd records the player resuming after a stall.
func (o *Origin) VideoRebufferEnd(now, stall time.Duration) {
	if o == nil {
		return
	}
	r := o.open(now, evVideoRebufferEnd)
	r.u[0] = uint64(stall)
	o.commit(r)
}

// VideoFinished records playback completing.
func (o *Origin) VideoFinished(now time.Duration) {
	if o == nil {
		return
	}
	o.commit(o.open(now, evVideoFinished))
}

// FaultInjected records a scripted fault op taking effect. op is the op's
// String() form; phase is "start" or "end" for windowed ops.
func (o *Origin) FaultInjected(now time.Duration, op, phase string) {
	if o == nil {
		return
	}
	r := o.open(now, evFaultInjected)
	r.s[0], r.s[1] = op, phase
	o.commit(r)
}

// FECSymbolSent records one FEC repair symbol (or, for index<0, the window
// announcement itself) leaving the sender.
func (o *Origin) FECSymbolSent(now time.Duration, windowID, streamID uint64, index int, size int) {
	if o == nil {
		return
	}
	r := o.open(now, evFECSymbolSent)
	r.u[0], r.u[1], r.u[2], r.u[3] = windowID, streamID, uint64(index), uint64(size)
	o.commit(r)
}

// FECSymbolReceived records one FEC repair symbol arriving at the decoder.
func (o *Origin) FECSymbolReceived(now time.Duration, windowID uint64, index int, size int) {
	if o == nil {
		return
	}
	r := o.open(now, evFECSymbolReceived)
	r.u[0], r.u[1], r.u[2] = windowID, uint64(index), uint64(size)
	o.commit(r)
}

// FECRecovered records the decoder rebuilding lost stream bytes from
// repair symbols — the third recovery lane actually firing.
func (o *Origin) FECRecovered(now time.Duration, windowID, streamID, offset uint64, size int) {
	if o == nil {
		return
	}
	r := o.open(now, evFECRecovered)
	r.u[0], r.u[1], r.u[2], r.u[3] = windowID, streamID, offset, uint64(size)
	o.commit(r)
}

// FECGiveUp records the decoder abandoning a window. reason attributes the
// give-up ("too_many_losses", "evicted", "malformed_repair").
func (o *Origin) FECGiveUp(now time.Duration, windowID uint64, reason string) {
	if o == nil {
		return
	}
	r := o.open(now, evFECGiveUp)
	r.u[0] = windowID
	r.s[0] = reason
	o.commit(r)
}

// FECDecision records the QoE redundancy controller's per-window verdict:
// whether to protect at all and with how many repair symbols.
func (o *Origin) FECDecision(now, dt time.Duration, lossRate float64, sourceSymbols, repairs int, protect bool) {
	if o == nil {
		return
	}
	r := o.open(now, evFECDecision)
	r.u[0], r.u[1], r.u[2], r.u[3], r.u[4] = uint64(dt), uint64(int64(lossRate*1e6)), uint64(sourceSymbols), uint64(repairs), flag(protect)
	o.commit(r)
}

// batchSizeBounds buckets the per-path batch-size histogram: the transport
// flushes a path's batch at 16 packets, so power-of-two buckets up to 64
// resolve the whole useful range.
var batchSizeBounds = []float64{1, 2, 4, 8, 16, 32, 64}

// BatchFlush records one SendBatch flush of n sealed packets on a path
// (DESIGN.md §16). Besides the trace event it feeds the batching metrics:
// the per-path batch-size histogram and the flush counter, both cached on
// the trace so the steady-state record path does not allocate.
func (o *Origin) BatchFlush(now time.Duration, pathID uint64, n int) {
	if o == nil {
		return
	}
	r := o.open(now, evBatchFlush)
	r.u[0], r.u[1] = pathID, uint64(n)
	o.commit(r)
	t := o.t
	if t.batchFlushes == nil {
		t.batchFlushes = t.reg.Counter(MetricBatchFlushes)
	}
	h := t.batchSizeHists[pathID]
	if h == nil {
		if t.batchSizeHists == nil {
			t.batchSizeHists = make(map[uint64]*Histogram)
		}
		h = t.reg.Histogram(MetricBatchSize.With("path", strconv.FormatUint(pathID, 10)), batchSizeBounds)
		t.batchSizeHists[pathID] = h
	}
	t.batchFlushes.Inc()
	h.Observe(float64(n))
}
