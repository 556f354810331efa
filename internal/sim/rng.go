package sim

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source for simulations. It wraps math/rand
// with a fixed seed and adds the distributions the emulator needs. It is not
// safe for concurrent use; give each simulated component its own RNG derived
// with Fork.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent RNG from this one, keyed by label so that the
// derived stream is stable regardless of how many other draws occurred.
func (g *RNG) Fork(label string) *RNG { return NewRNG(g.ForkSeed(label)) }

// ForkSeed returns the seed Fork(label) would build its RNG from, for a
// component that takes a seed rather than an RNG. It draws from g as Fork
// does.
func (g *RNG) ForkSeed(label string) int64 {
	var h int64 = 1469598103934665603 // FNV-1a offset basis (truncated)
	for i := 0; i < len(label); i++ {
		h ^= int64(label[i])
		h *= 1099511628211
	}
	return h ^ g.r.Int63()
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0,n). n must be > 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Uniform returns a uniform value in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Normal returns a normal sample with the given mean and standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// LogNormal returns a log-normal sample parameterized by the *median* and
// sigma (shape). Median parameterization keeps calibration against the
// paper's reported median RTTs direct: P50 = median exactly.
func (g *RNG) LogNormal(median, sigma float64) float64 {
	if median <= 0 {
		return 0
	}
	return median * math.Exp(sigma*g.r.NormFloat64())
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}
