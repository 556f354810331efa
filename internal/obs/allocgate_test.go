package obs

import (
	"bytes"
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

// TestAllocGateFullTrace gates the NDJSON sink: once the stream's buffer has
// grown, a typed emit renders its record straight into the spare capacity —
// the numeric, boolean and string fields, a reason that needs escaping — at
// 0 allocs/op. Each run emits the FEC events the ring-only gate above does
// not reach, then drops the rendered lines so the buffer never grows again.
func TestAllocGateFullTrace(t *testing.T) {
	tr := NewTrace("gate")
	o := tr.Origin("server")
	var n uint64
	emit := func() {
		n++
		now := time.Duration(n) * time.Millisecond
		o.PacketSent(now, 0, n, 1200, "1rtt")
		o.FECSymbolSent(now, n, 4, -1, 40)
		o.FECSymbolSent(now, n, 4, 0, 1024)
		o.FECDecision(now, 80*time.Millisecond, 0.02, 8, 1, true)
		o.FECGiveUp(now, n, "too_many\tlosses")
	}
	for i := 0; i < 64; i++ { // grow the buffer, create every event's counter
		emit()
	}
	line := func() string {
		b := tr.Bytes()
		return string(b[bytes.LastIndexByte(b[:len(b)-1], '\n')+1:])
	}
	const want = `{"time":64000000,"origin":"server","name":"fec:decoder_give_up","data":{"window":64,"reason":"too_many\u0009losses"}}` + "\n"
	if got := line(); got != want {
		t.Fatalf("last line %q, want %q", got, want)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		tr.buf.Truncate(0)
		emit()
	}); allocs != 0 {
		t.Errorf("full-trace emit allocates %.1f allocs/op, want 0", allocs)
	}
	if got := tr.EventCount(); got != 5*(64+1001) {
		t.Fatalf("%d events counted, want %d", got, 5*(64+1001))
	}
}
