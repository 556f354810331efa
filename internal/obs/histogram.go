package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a concurrent fixed-bucket histogram with Prometheus `le`
// semantics: bucket i counts observations v <= bounds[i], plus one overflow
// bucket. Recording is atomic, lock-free and allocation-free; bounds are
// immutable after construction.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, overflow last
	count  atomic.Uint64
	// sumUnits accumulates the observation sum in fixed-point sumScale
	// units. Integer addition is commutative and associative, so the sum —
	// unlike a float accumulator — is a pure function of the multiset of
	// observed values, independent of recording order (the determinism the
	// exposition tests pin).
	sumUnits atomic.Int64
}

// sumScale is the fixed-point resolution of the sum accumulator: 2^-20
// (~1e-6) absolute, which at the seconds scale session metrics use keeps
// microsecond precision while bounding the summed range at ~8.8e12 (2^63
// units). Non-finite observations count but contribute no sum.
const sumScale = 1 << 20

// NewHistogram creates a histogram with the given strictly increasing
// upper bounds. It panics on invalid bounds — bucket layouts are static
// configuration, and a bad layout should fail loudly at construction.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// LogBuckets returns n exponentially growing upper bounds starting at
// start and multiplying by factor — the log-bucketed layout the session
// histograms (RCT, rebuffer time) use, covering decades of dynamic range
// with constant relative resolution.
func LogBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("obs: LogBuckets needs n > 0, start > 0, factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value. Lock-free: the bucket is found by binary
// search over the immutable bounds, and all updates are atomic.
func (h *Histogram) Observe(v float64) {
	// First bucket whose bound is >= v (Prometheus le semantics).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	if u := v * sumScale; u == u && !math.IsInf(u, 0) {
		h.sumUnits.Add(int64(math.Round(u)))
	}
}

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCounts returns per-bucket (non-cumulative) counts; the last entry
// is the overflow bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for b := range out {
		out[b] = h.counts[b].Load()
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values at sumScale fixed-point
// resolution, exactly independent of recording order.
func (h *Histogram) Sum() float64 { return float64(h.sumUnits.Load()) / sumScale }
