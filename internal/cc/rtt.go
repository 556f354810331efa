// Package cc implements per-path congestion control for the transport:
// an RFC 6298/9002-style RTT estimator, NewReno, and Cubic (RFC 8312).
// XLINK and the other multi-path baselines use "decoupled" congestion
// control — an independent controller instance per path — matching the
// configuration in the paper's experiments (Sec 7).
package cc

import "time"

// Default timing constants from RFC 9002.
const (
	// DefaultInitialRTT seeds the estimator before the first sample.
	DefaultInitialRTT = 333 * time.Millisecond
	// MinPTO bounds the probe timeout from below.
	MinPTO = 10 * time.Millisecond
	// Granularity is the timer granularity used in loss deadlines.
	Granularity = time.Millisecond
)

// RTTEstimator tracks smoothed RTT and RTT variation for one path, per
// RFC 6298 as adopted by RFC 9002 §5.
type RTTEstimator struct {
	latest    time.Duration
	min       time.Duration
	smoothed  time.Duration
	variation time.Duration
	samples   int
}

// NewRTTEstimator returns an estimator with RFC defaults.
func NewRTTEstimator() *RTTEstimator {
	return &RTTEstimator{}
}

// Reset clears all samples, as required after connection migration
// (RFC 9000 §9.4: path characteristics must be re-estimated).
func (e *RTTEstimator) Reset() {
	*e = RTTEstimator{}
}

// Update records an RTT sample, adjusted by the peer's reported ack delay.
func (e *RTTEstimator) Update(sample, ackDelay time.Duration) {
	if sample <= 0 {
		return
	}
	e.latest = sample
	if e.min == 0 || sample < e.min {
		e.min = sample
	}
	adjusted := sample
	if adjusted > e.min+ackDelay {
		adjusted -= ackDelay
	}
	if e.samples == 0 {
		e.smoothed = adjusted
		e.variation = adjusted / 2
	} else {
		d := e.smoothed - adjusted
		if d < 0 {
			d = -d
		}
		e.variation = (3*e.variation + d) / 4
		e.smoothed = (7*e.smoothed + adjusted) / 8
	}
	e.samples++
}

// Latest returns the most recent raw sample.
func (e *RTTEstimator) Latest() time.Duration { return e.latest }

// Smoothed returns the smoothed RTT, or the RFC initial value before the
// first sample.
func (e *RTTEstimator) Smoothed() time.Duration {
	if e.samples == 0 {
		return DefaultInitialRTT
	}
	return e.smoothed
}

// Variation returns the RTT variation (δ in the paper's Eq. 1).
func (e *RTTEstimator) Variation() time.Duration {
	if e.samples == 0 {
		return DefaultInitialRTT / 2
	}
	return e.variation
}

// PTO returns the probe timeout: smoothed + max(4*variation, granularity),
// per RFC 9002 §6.2.1.
func (e *RTTEstimator) PTO() time.Duration {
	v := 4 * e.Variation()
	if v < Granularity {
		v = Granularity
	}
	pto := e.Smoothed() + v
	if pto < MinPTO {
		pto = MinPTO
	}
	return pto
}

// DeliverTime returns RTT + δ, the paper's per-path estimate of the maximum
// in-flight delivery time used by the double-thresholding controller
// (Eq. 1 in Sec 5.2.2).
func (e *RTTEstimator) DeliverTime() time.Duration {
	return e.Smoothed() + e.Variation()
}
