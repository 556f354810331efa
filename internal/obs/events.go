package obs

import (
	"strconv"
	"time"
)

// Typed event emitters. Every method is nil-receiver-safe and takes only
// scalar arguments so the disabled (nil Origin) path performs no work and
// no allocations — the zero-overhead guarantee the transport hot paths
// rely on (see TestNoopTracerZeroAlloc).

// PacketSent records a datagram leaving on a path. kind distinguishes
// "initial", "1rtt", "ack", "probe", "ctrl" and "close" packets.
//
// xlinkvet:hot
func (o *Origin) PacketSent(now time.Duration, pathID, pn uint64, size int, kind string) {
	if o == nil {
		return
	}
	o.begin(now, EvPacketSent)
	o.u64("path", pathID)
	o.u64("pn", pn)
	o.i("bytes", int64(size))
	o.s("kind", kind)
	o.end()
}

// PacketReceived records a datagram arriving on a network interface. It is
// emitted exactly where ConnStats.RecvPackets is incremented, so
// trace-derived receive counts reconcile with the counter.
//
// xlinkvet:hot
func (o *Origin) PacketReceived(now time.Duration, netIdx, size int) {
	if o == nil {
		return
	}
	o.begin(now, EvPacketReceived)
	o.i("net", int64(netIdx))
	o.i("bytes", int64(size))
	o.end()
}

// PacketAcked records one packet newly acknowledged by the peer.
//
// xlinkvet:hot
func (o *Origin) PacketAcked(now time.Duration, pathID, pn uint64) {
	if o == nil {
		return
	}
	o.begin(now, EvPacketAcked)
	o.u64("path", pathID)
	o.u64("pn", pn)
	o.end()
}

// PacketLost records one packet declared lost. trigger attributes the loss
// declaration ("reordering", "time", "pto", "evacuated").
//
// xlinkvet:hot
func (o *Origin) PacketLost(now time.Duration, pathID, pn uint64, size int, trigger string) {
	if o == nil {
		return
	}
	o.begin(now, EvPacketLost)
	o.u64("path", pathID)
	o.u64("pn", pn)
	o.i("bytes", int64(size))
	o.s("trigger", trigger)
	o.end()
}

// MetricsUpdated records a congestion-controller state change on a path.
//
// xlinkvet:hot
func (o *Origin) MetricsUpdated(now time.Duration, pathID uint64, cwnd, inFlight int, slowStart bool, srtt time.Duration) {
	if o == nil {
		return
	}
	o.begin(now, EvMetricsUpdated)
	o.u64("path", pathID)
	o.i("cwnd", int64(cwnd))
	o.i("in_flight", int64(inFlight))
	o.b("slow_start", slowStart)
	o.d("srtt", srtt)
	o.end()
}

// PathAdded records a new path joining the connection.
func (o *Origin) PathAdded(now time.Duration, pathID uint64, netIdx int, tech string) {
	if o == nil {
		return
	}
	o.begin(now, EvPathAdded)
	o.u64("path", pathID)
	o.i("net", int64(netIdx))
	o.s("tech", tech)
	o.end()
}

// PathValidated records PATH_RESPONSE completing validation of a path.
func (o *Origin) PathValidated(now time.Duration, pathID uint64) {
	if o == nil {
		return
	}
	o.begin(now, EvPathValidated)
	o.u64("path", pathID)
	o.end()
}

// PathStateChanged records a local path state transition with its cause
// ("suspect", "standby", "available", "peer-standby", ...).
func (o *Origin) PathStateChanged(now time.Duration, pathID uint64, state, reason string) {
	if o == nil {
		return
	}
	o.begin(now, EvPathState)
	o.u64("path", pathID)
	o.s("state", state)
	o.s("reason", reason)
	o.end()
}

// PathAbandoned records a path leaving service permanently.
func (o *Origin) PathAbandoned(now time.Duration, pathID uint64, reason string) {
	if o == nil {
		return
	}
	o.begin(now, EvPathAbandoned)
	o.u64("path", pathID)
	o.s("reason", reason)
	o.end()
}

// PrimaryChanged records a primary-path re-election.
func (o *Origin) PrimaryChanged(now time.Duration, oldID, newID uint64) {
	if o == nil {
		return
	}
	o.begin(now, EvPrimaryChanged)
	o.u64("old", oldID)
	o.u64("new", newID)
	o.end()
}

// ConnStateChanged records a connection lifecycle transition. code and
// reason carry the close error when entering closing/draining/closed. A
// connection that ends closed must have traced its entry into closed with
// it; the chaos corpus and the transport's lifecycle tests check that.
func (o *Origin) ConnStateChanged(now time.Duration, oldState, newState string, code uint64, reason string) {
	if o == nil {
		return
	}
	o.begin(now, EvConnState)
	o.s("old", oldState)
	o.s("new", newState)
	o.u64("code", code)
	o.s("reason", reason)
	o.end()
}

// QoESignal records a client QoE feedback arriving at the server-side
// controller.
func (o *Origin) QoESignal(now time.Duration, cachedBytes, cachedFrames uint64) {
	if o == nil {
		return
	}
	o.begin(now, EvQoESignal)
	o.u64("cached_bytes", cachedBytes)
	o.u64("cached_frames", cachedFrames)
	o.end()
}

// QoEDecision records one Alg. 1 double-threshold evaluation: the play-time
// left Δt, both thresholds, the Eq. 1 max delivery time it was compared
// against, and the verdict.
func (o *Origin) QoEDecision(now, dt, tth1, tth2, maxDeliver time.Duration, enable bool) {
	if o == nil {
		return
	}
	o.begin(now, EvQoEDecision)
	o.d("dt", dt)
	o.d("tth1", tth1)
	o.d("tth2", tth2)
	o.d("max_deliver", maxDeliver)
	o.b("enable", enable)
	o.end()
}

// ReinjectSend records a re-injected chunk leaving on a path.
func (o *Origin) ReinjectSend(now time.Duration, pathID, streamID, offset uint64, size int) {
	if o == nil {
		return
	}
	o.begin(now, EvReinjectSend)
	o.u64("path", pathID)
	o.u64("stream", streamID)
	o.u64("offset", offset)
	o.i("bytes", int64(size))
	o.end()
}

// ReinjectCancel records a queued re-injection discarded unsent because its
// stream was reset (reason "reset"). A copy whose data the peer came to hold
// first leaves its queue without an event: that is how most candidates end.
func (o *Origin) ReinjectCancel(now time.Duration, streamID, offset uint64, size int, reason string) {
	if o == nil {
		return
	}
	o.begin(now, EvReinjectCancel)
	o.u64("stream", streamID)
	o.u64("offset", offset)
	o.i("bytes", int64(size))
	o.s("reason", reason)
	o.end()
}

// VideoFrameCached records the first video frame being fully buffered.
func (o *Origin) VideoFrameCached(now time.Duration, bytes uint64) {
	if o == nil {
		return
	}
	o.begin(now, EvVideoFrameCached)
	o.u64("bytes", bytes)
	o.end()
}

// VideoFramesDecoded records playback progress as a cumulative decoded
// frame count.
func (o *Origin) VideoFramesDecoded(now time.Duration, frames uint64) {
	if o == nil {
		return
	}
	o.begin(now, EvVideoFramesDecoded)
	o.u64("frames", frames)
	o.end()
}

// VideoPlaybackStarted records startup completing.
func (o *Origin) VideoPlaybackStarted(now time.Duration) {
	if o == nil {
		return
	}
	o.begin(now, EvVideoPlaybackStart)
	o.end()
}

// VideoRebufferStart records the player stalling. at is the model's exact
// buffer-exhaustion instant, which may precede the driving tick.
func (o *Origin) VideoRebufferStart(now time.Duration, count int) {
	if o == nil {
		return
	}
	o.begin(now, EvVideoRebufferStart)
	o.i("count", int64(count))
	o.end()
}

// VideoRebufferEnd records the player resuming after a stall.
func (o *Origin) VideoRebufferEnd(now, stall time.Duration) {
	if o == nil {
		return
	}
	o.begin(now, EvVideoRebufferEnd)
	o.d("stall", stall)
	o.end()
}

// VideoFinished records playback completing.
func (o *Origin) VideoFinished(now time.Duration) {
	if o == nil {
		return
	}
	o.begin(now, EvVideoFinished)
	o.end()
}

// FaultInjected records a scripted fault op taking effect. op is the op's
// String() form; phase is "start" or "end" for windowed ops.
func (o *Origin) FaultInjected(now time.Duration, op, phase string) {
	if o == nil {
		return
	}
	o.begin(now, EvFaultInjected)
	o.s("op", op)
	o.s("phase", phase)
	o.end()
}

// FECSymbolSent records one FEC repair symbol (or, for index<0, the window
// announcement itself) leaving the sender.
//
// xlinkvet:hot
func (o *Origin) FECSymbolSent(now time.Duration, windowID, streamID uint64, index int, size int) {
	if o == nil {
		return
	}
	o.begin(now, EvFECSymbolSent)
	o.u64("window", windowID)
	o.u64("stream", streamID)
	o.i("index", int64(index))
	o.i("bytes", int64(size))
	o.end()
}

// FECSymbolReceived records one FEC repair symbol arriving at the decoder.
//
// xlinkvet:hot
func (o *Origin) FECSymbolReceived(now time.Duration, windowID uint64, index int, size int) {
	if o == nil {
		return
	}
	o.begin(now, EvFECSymbolReceived)
	o.u64("window", windowID)
	o.i("index", int64(index))
	o.i("bytes", int64(size))
	o.end()
}

// FECRecovered records the decoder rebuilding lost stream bytes from
// repair symbols — the third recovery lane actually firing.
//
// xlinkvet:hot
func (o *Origin) FECRecovered(now time.Duration, windowID, streamID, offset uint64, size int) {
	if o == nil {
		return
	}
	o.begin(now, EvFECRecovered)
	o.u64("window", windowID)
	o.u64("stream", streamID)
	o.u64("offset", offset)
	o.i("bytes", int64(size))
	o.end()
}

// FECGiveUp records the decoder abandoning a window. reason attributes the
// give-up ("too_many_losses", "evicted", "malformed_repair").
//
// xlinkvet:hot
func (o *Origin) FECGiveUp(now time.Duration, windowID uint64, reason string) {
	if o == nil {
		return
	}
	o.begin(now, EvFECGiveUp)
	o.u64("window", windowID)
	o.s("reason", reason)
	o.end()
}

// FECDecision records the QoE redundancy controller's per-window verdict:
// whether to protect at all and with how many repair symbols.
//
// xlinkvet:hot
func (o *Origin) FECDecision(now, dt time.Duration, lossRate float64, sourceSymbols, repairs int, protect bool) {
	if o == nil {
		return
	}
	o.begin(now, EvFECDecision)
	o.d("dt", dt)
	o.i("loss_ppm", int64(lossRate*1e6))
	o.i("k", int64(sourceSymbols))
	o.i("repairs", int64(repairs))
	o.b("protect", protect)
	o.end()
}

// batchSizeBounds buckets the per-path batch-size histogram: batches are
// SendBatchSize-capped (default 16), so power-of-two buckets up to 64
// resolve the whole useful range.
var batchSizeBounds = []float64{1, 2, 4, 8, 16, 32, 64}

// BatchFlush records one SendBatch flush of n sealed packets on a path
// (DESIGN.md §16). Besides the trace event it feeds the batching metrics:
// the per-path batch-size histogram and the flush counter, both cached on
// the trace so the steady-state record path does not allocate.
//
// xlinkvet:hot
func (o *Origin) BatchFlush(now time.Duration, pathID uint64, n int) {
	if o == nil {
		return
	}
	o.begin(now, EvBatchFlush)
	o.u64("path", pathID)
	o.i("packets", int64(n))
	o.end()
	t := o.t
	//xlinkvet:cold — first flush builds and caches the counter handle
	if t.batchFlushes == nil {
		t.batchFlushes = t.reg.Counter(MetricBatchFlushes)
	}
	h := t.batchSizeHists[pathID]
	//xlinkvet:cold — first flush per path builds and caches its labeled histogram handle (With allocates)
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

// AckCoalesced records one batch-end coalesced loss-detection pass
// (DESIGN.md §16): acks ACK frames, spread over paths paths, were folded
// into a single detectLost/gc sweep per path instead of one per frame.
//
// xlinkvet:hot
func (o *Origin) AckCoalesced(now time.Duration, acks, paths int) {
	if o == nil {
		return
	}
	o.begin(now, EvAckCoalesced)
	o.i("acks", int64(acks))
	o.i("paths", int64(paths))
	o.end()
	t := o.t
	//xlinkvet:cold — first coalesced batch builds and caches the counter handle
	if t.coalescedAcks == nil {
		t.coalescedAcks = t.reg.Counter(MetricCoalescedAcks)
	}
	t.coalescedAcks.Add(uint64(acks))
}
