package obs

import (
	"testing"
	"time"
)

// Allocation gates for the telemetry plane (DESIGN.md §11/§14): the record
// path of every registry handle and the flight-recorder append path must
// be allocation-free once warm, so always-on telemetry never pressures the
// GC from live-endpoint goroutines. check.sh runs these with -count=1.

// TestAllocGateRegistryRecord gates counter/gauge/histogram recording
// through cached handles at 0 allocs/op.
func TestAllocGateRegistryRecord(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("gate_total")
	g := r.Gauge("gate_gauge")
	h := r.Histogram("gate_seconds", LogBuckets(0.001, 2, 12))
	v := 0.001
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(v)
		g.Add(0.5)
		h.Observe(v)
		v += 0.0017
	}); allocs != 0 {
		t.Errorf("registry record path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocGateRegistryLookup gates the steady-state handle lookup (name
// already registered) at 0 allocs/op — the path a component takes when it
// does not cache.
func TestAllocGateRegistryLookup(t *testing.T) {
	r := NewRegistry()
	r.Counter("gate_total").Inc()
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Counter("gate_total").Inc()
	}); allocs != 0 {
		t.Errorf("warm counter lookup allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocGateFlightRecorder gates the always-on capture promise: with a
// ring-only trace, a full typed emit (record fill + per-event counter) is 0
// allocs/op once warm.
func TestAllocGateFlightRecorder(t *testing.T) {
	tr := NewFlightTrace("gate", 64)
	o := tr.Origin("client")
	// Warm: first emit of each event creates its counter.
	o.PacketSent(0, 0, 1, 1200, "1rtt")
	o.PacketLost(0, 0, 1, 1200, "pto")
	var pn uint64
	if allocs := testing.AllocsPerRun(1000, func() {
		pn++
		o.PacketSent(time.Duration(pn)*time.Millisecond, 0, pn, 1200, "1rtt")
		o.PacketLost(time.Duration(pn)*time.Millisecond, 1, pn, 1200, "pto")
	}); allocs != 0 {
		t.Errorf("flight-recorder emit allocates %.1f allocs/op, want 0", allocs)
	}
}
