// Package qoe implements XLINK's QoE feedback control (Sec 5.2): the
// double-thresholding algorithm (Alg. 1) that decides, from the client
// video player's reported state, whether packet re-injection is currently
// worth its redundancy cost, plus the threshold-calibration helper used in
// Sec 7.1 to pick thresholds from a play-time-left distribution.
package qoe

import (
	"time"

	"repro/internal/assert"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Thresholds holds the two play-time-left thresholds of Alg. 1, with
// Tth1 <= Tth2. Below Tth1 re-injection is always on (responsiveness);
// above Tth2 it is always off (cost efficiency); in between the decision
// compares Δt with the estimated in-flight delivery time.
type Thresholds struct {
	Tth1 time.Duration
	Tth2 time.Duration
}

// Valid reports whether the thresholds are ordered.
func (t Thresholds) Valid() bool { return t.Tth1 >= 0 && t.Tth1 <= t.Tth2 }

// Decide is the pure form of Alg. 1: given the play-time left Δt and the
// maximum delivery time of in-flight packets (Eq. 1), it returns whether
// re-injection should be enabled.
func (t Thresholds) Decide(playtimeLeft, maxDeliverTime time.Duration) bool {
	if playtimeLeft > t.Tth2 {
		return false
	}
	if playtimeLeft < t.Tth1 {
		return true
	}
	return playtimeLeft < maxDeliverTime
}

// Controller tracks the most recent QoE feedback from the client and
// answers re-injection queries. Between feedbacks, the play-time left is
// extrapolated downward at real time (footnote 10 of the paper): the player
// keeps consuming its buffer while the signal ages.
type Controller struct {
	thresholds Thresholds

	lastSignal wire.QoESignal
	lastUpdate time.Duration
	haveSignal bool

	// Decision counters for experiments.
	decisions uint64
	enables   uint64
	// transitions counts verdict flips between consecutive decisions —
	// the Alg. 1 oscillation measure the scorecard reports.
	transitions uint64
	lastVerdict bool
	decided     bool

	// tr traces every Alg. 1 evaluation (nil = no-op).
	tr *obs.Origin
}

// NewController creates a controller with the given thresholds.
func NewController(th Thresholds) *Controller {
	return &Controller{thresholds: th}
}

// SetTracer installs a structured event tracer recording every decision
// (qoe:reinjection_decision with Δt, both thresholds and the verdict).
func (c *Controller) SetTracer(o *obs.Origin) { c.tr = o }

// Thresholds returns the configured thresholds.
func (c *Controller) Thresholds() Thresholds { return c.thresholds }

// OnSignal ingests a QoE feedback received at now.
func (c *Controller) OnSignal(now time.Duration, sig wire.QoESignal) {
	assert.NonNegDur(now-c.lastUpdate, "qoe signal time step")
	c.lastSignal = sig
	c.lastUpdate = now
	c.haveSignal = true
}

// PlaytimeLeft returns the current Δt estimate at now.
func (c *Controller) PlaytimeLeft(now time.Duration) time.Duration {
	if !c.haveSignal {
		return 0 // no feedback yet: assume the most urgent state
	}
	dt := c.lastSignal.PlaytimeLeft()
	if age := now - c.lastUpdate; age > 0 {
		dt -= age
	}
	if dt < 0 {
		dt = 0
	}
	return dt
}

// Decide runs Alg. 1 at now against the supplied Eq. 1 value. With no
// feedback yet, re-injection stays on (start-up is when it matters most,
// cf. the first-video-frame acceleration of Sec 5.1).
func (c *Controller) Decide(now, maxDeliverTime time.Duration) bool {
	c.decisions++
	dt := c.PlaytimeLeft(now)
	on := c.thresholds.Decide(dt, maxDeliverTime)
	if on {
		c.enables++
	}
	if c.decided && on != c.lastVerdict {
		c.transitions++
	}
	c.decided, c.lastVerdict = true, on
	c.tr.QoEDecision(now, dt, c.thresholds.Tth1, c.thresholds.Tth2, maxDeliverTime, on)
	return on
}

// Transitions returns how many times consecutive Alg. 1 verdicts flipped
// (enable<->disable) — 0 means the controller held one decision all run.
func (c *Controller) Transitions() uint64 { return c.transitions }

// Stats returns (total decisions, decisions that enabled re-injection).
func (c *Controller) Stats() (decisions, enables uint64) {
	return c.decisions, c.enables
}

// CalibrateThresholds implements the Sec 7.1 method: given samples of the
// play-time-left distribution (measured with control off) and percentile
// ranks X >= Y — where th(X) is the value exceeded by X% of samples — it
// returns Thresholds{Tth1: th(X), Tth2: th(Y)}. E.g. (95, 80) puts Tth1 at
// the 5th percentile and Tth2 at the 20th percentile of the distribution.
func CalibrateThresholds(playtimeSamples []time.Duration, x, y float64) Thresholds {
	vals := make([]float64, len(playtimeSamples))
	for i, d := range playtimeSamples {
		vals[i] = float64(d)
	}
	// Prob[v > th(X)] = X%  =>  th(X) is the (100-X)th percentile.
	t1 := stats.Percentile(vals, 100-x)
	t2 := stats.Percentile(vals, 100-y)
	if t1 < 0 {
		t1 = 0
	}
	if t2 < t1 {
		t2 = t1
	}
	return Thresholds{Tth1: time.Duration(t1), Tth2: time.Duration(t2)}
}

// CostBounds returns the paper's redundancy cost bounds (Cmin, Cmax) for a
// play-time-left distribution and thresholds, given beta (the overhead
// with re-injection always on, ~15% in the paper).
func CostBounds(playtimeSamples []time.Duration, th Thresholds, beta float64) (cmin, cmax float64) {
	if len(playtimeSamples) == 0 {
		return 0, 0
	}
	var below1, below2 int
	for _, d := range playtimeSamples {
		if d < th.Tth1 {
			below1++
		}
		if d < th.Tth2 {
			below2++
		}
	}
	n := float64(len(playtimeSamples))
	return beta * float64(below1) / n, beta * float64(below2) / n
}
