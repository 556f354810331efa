package qoe

import (
	"math"
	"time"

	"repro/internal/obs"
)

// The FEC redundancy controller's code-rate policy.
const (
	// fecMinLossRate is the loss estimate below which proactive protection
	// is not worth its overhead: the paths are clean enough that the
	// ACK-driven lane alone meets the deadline.
	fecMinLossRate = 0.005
	// fecHeadroom over-provisions the loss-proportional code rate: burst
	// loss is correlated, so the empirical mean under-counts the per-window
	// worst case.
	fecHeadroom = 1.5
	// fecMaxRepairs caps repair symbols per window.
	fecMaxRepairs = 4
)

// RedundancyController extends Alg. 1 from *whether* to protect the tail
// of the current video frame to *how*: re-injection duplicates it on a
// fast path reactively, FEC spends repair symbols proactively. The same
// Δt signal drives both — plenty of buffer means no protection at all;
// a draining buffer on a lossy path means FEC sized to the loss rate; a
// nearly-empty buffer adds an extra repair symbol on top, since a second
// loss event would stall playback before any retransmission lands. It
// implements transport.FECGate via PlanFEC.
type RedundancyController struct {
	ctrl *Controller

	// Decision counters for experiments.
	decisions uint64
	protects  uint64

	// tr traces every verdict (qoe:fec_decision; nil = no-op).
	tr *obs.Origin
}

// NewRedundancyController wraps an Alg. 1 controller (sharing its QoE
// signal feed and thresholds) with FEC code-rate policy.
func NewRedundancyController(ctrl *Controller) *RedundancyController {
	return &RedundancyController{ctrl: ctrl}
}

// SetTracer installs a structured event tracer recording every verdict.
func (r *RedundancyController) SetTracer(o *obs.Origin) { r.tr = o }

// PlanFEC decides whether a protection window of sourceSymbols symbols
// deserves repair symbols and how many. Signature matches
// transport.FECGate.
func (r *RedundancyController) PlanFEC(now, maxDeliverTime time.Duration, lossRate float64, sourceSymbols int) (bool, int) {
	r.decisions++
	th := r.ctrl.Thresholds()
	dt := r.ctrl.PlaytimeLeft(now)
	protect := true
	repairs := 0
	switch {
	case dt > th.Tth2:
		// Ample buffer: even a full RTO would not stall the player, so
		// redundancy is pure cost (Alg. 1's upper threshold, applied to
		// the proactive lane too).
		protect = false
	case lossRate < fecMinLossRate:
		// Paths are clean: the re-injection race and plain retransmission
		// already cover the tail; skip the repair overhead.
		protect = false
	default:
		repairs = int(math.Ceil(float64(sourceSymbols) * lossRate * fecHeadroom))
		if repairs < 1 {
			repairs = 1
		}
		if dt < th.Tth1 {
			// Critically low buffer: one extra symbol buys tolerance for
			// one more loss in the window, the regime where a stall is
			// otherwise certain (Fig 5's rebuffer cliff).
			repairs++
		}
		if repairs > fecMaxRepairs {
			repairs = fecMaxRepairs
		}
	}
	if protect {
		r.protects++
	}
	r.tr.FECDecision(now, dt, lossRate, sourceSymbols, repairs, protect)
	return protect, repairs
}

// Stats returns (total verdicts, verdicts that protected the window).
func (r *RedundancyController) Stats() (decisions, protects uint64) {
	return r.decisions, r.protects
}
