// Package sim provides a deterministic discrete-event simulation loop,
// a virtual clock, and a seeded random source. Every emulated experiment in
// this repository (trace replay, A/B fleets, benchmark harnesses) runs on a
// sim.Loop so results are reproducible and independent of wall-clock time.
package sim

import "time"

// Clock reports the current time as a duration since an arbitrary epoch.
// Transport and emulation code never reads the wall clock directly; it is
// handed a Clock so it can run on either virtual or real time.
type Clock interface {
	// Now returns the time elapsed since the clock's epoch.
	Now() time.Duration
}

// RealClock is a Clock backed by the wall clock. Its epoch is the moment it
// is created with NewRealClock.
type RealClock struct {
	start time.Time
}

// NewRealClock returns a RealClock whose epoch is the current wall time.
func NewRealClock() *RealClock {
	return &RealClock{start: time.Now()}
}

// Now implements Clock.
func (c *RealClock) Now() time.Duration {
	return time.Since(c.start)
}
