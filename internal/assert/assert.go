// Package assert provides runtime invariant checks that compile to no-ops
// unless the `xlinkdebug` build tag is set. Hot paths guard expensive checks
// with assert.Enabled so release builds pay nothing:
//
//	if assert.Enabled {
//		for i := 1; i < len(q); i++ {
//			assert.That(q[i-1].prio <= q[i].prio, "queue out of order at %d", i)
//		}
//	}
//
// A failed assertion panics with an "xlink assert:" prefix. Assertions guard
// internal invariants only — never attacker-controlled input, which must be
// handled with ordinary error returns. The hostile-peer tests of
// internal/transport and the fuzz targets of internal/wire feed a connection
// and the parsers such input, and fail on any panic it reaches.
package assert

import "time"

// NonNegDur asserts that a duration derived from clock or QoE arithmetic
// (Δt, ack delay, inter-arrival gaps) has not gone negative.
func NonNegDur(d time.Duration, what string) {
	That(d >= 0, "%s is negative: %v", what, d)
}

// MonotonicU64 asserts next > prev, the strict per-path packet-number
// ordering required of each packet number space.
func MonotonicU64(prev, next uint64, what string) {
	That(next > prev, "%s not monotonic: %d -> %d", what, prev, next)
}
