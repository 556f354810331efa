package obs

import (
	"math"
	"sync/atomic"
)

// histShards is the per-histogram shard count. Observe spreads recorded
// values across shards by mixing the value bits, so concurrent recorders
// rarely collide on one shard's atomics; readers merge the shards in fixed
// index order, which — uint64 bucket adds being commutative and each shard
// summed in the same order every time — makes the merged view independent
// of recording interleaving (see TestHistogramMergeDeterminism).
const histShards = 8

// Histogram is a concurrent fixed-bucket histogram with Prometheus `le`
// semantics: bucket i counts observations v <= bounds[i], plus one overflow
// bucket. Recording is atomic, lock-free and allocation-free; bounds are
// immutable after construction.
type Histogram struct {
	bounds []float64
	shards [histShards]histShard
}

type histShard struct {
	counts []atomic.Uint64 // len(bounds)+1, overflow last
	count  atomic.Uint64
	// sumUnits accumulates the observation sum in fixed-point sumScale
	// units. Integer addition is commutative and associative, so the
	// merged sum — unlike a float accumulator — is a pure function of the
	// multiset of observed values, independent of recording order and
	// shard assignment (the determinism the exposition tests pin).
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
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	for i := range h.shards {
		h.shards[i].counts = make([]atomic.Uint64, len(bounds)+1)
	}
	return h
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

// Observe records one value. Lock-free: the shard is picked by mixing the
// value bits (splitmix64 finalizer), the bucket by binary search over the
// immutable bounds, and all updates are atomic.
func (h *Histogram) Observe(v float64) {
	bits := math.Float64bits(v)
	// splitmix64 finalizer: spreads even near-identical values across
	// shards so hot constants don't serialize on one shard's cache line.
	bits ^= bits >> 30
	bits *= 0xbf58476d1ce4e5b9
	bits ^= bits >> 27
	bits *= 0x94d049bb133111eb
	bits ^= bits >> 31
	s := &h.shards[bits%histShards]

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
	s.counts[lo].Add(1)
	s.count.Add(1)
	if u := v * sumScale; u == u && !math.IsInf(u, 0) {
		s.sumUnits.Add(int64(math.Round(u)))
	}
}

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCounts returns per-bucket (non-cumulative) counts merged across
// shards in fixed shard order; the last entry is the overflow bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.bounds)+1)
	for i := range h.shards {
		for b := range out {
			out[b] += h.shards[i].counts[b].Load()
		}
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.shards {
		n += h.shards[i].count.Load()
	}
	return n
}

// Sum returns the sum of observed values at sumScale fixed-point
// resolution. Because each shard accumulates integers, the merged sum is
// exactly order-independent.
func (h *Histogram) Sum() float64 {
	var s int64
	for i := range h.shards {
		s += h.shards[i].sumUnits.Load()
	}
	return float64(s) / sumScale
}
