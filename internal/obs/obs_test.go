package obs

import (
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestTraceRoundTrip(t *testing.T) {
	tr := NewTrace("unit")
	cl := tr.Origin("client")
	sv := tr.Origin("server")

	cl.PacketSent(10*time.Millisecond, 0, 1, 1200, "1rtt")
	sv.PacketReceived(30*time.Millisecond, 0, 1200)
	sv.QoEDecision(40*time.Millisecond, 900*time.Millisecond, time.Second, 2500*time.Millisecond, 80*time.Millisecond, true)
	cl.ConnStateChanged(50*time.Millisecond, "established", "closing", 0, `quote " and \ backslash`)

	if tr.EventCount() != 4 {
		t.Fatalf("EventCount = %d, want 4", tr.EventCount())
	}
	events, err := ParseBytes(tr.Bytes())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("parsed %d events, want 4", len(events))
	}
	if events[0].Name != EvPacketSent || events[0].Origin != "client" || events[0].Time != 10*time.Millisecond {
		t.Fatalf("event 0 = %+v", events[0])
	}
	if events[0].U64("pn") != 1 || events[0].I64("bytes") != 1200 || events[0].Str("kind") != "1rtt" {
		t.Fatalf("event 0 data = %v", events[0].Data)
	}
	d := events[2]
	if d.Name != EvQoEDecision || d.Dur("dt") != 900*time.Millisecond ||
		d.Dur("tth1") != time.Second || d.Dur("tth2") != 2500*time.Millisecond || !d.Bool("enable") {
		t.Fatalf("decision event = %+v", d)
	}
	if got := events[3].Str("reason"); got != `quote " and \ backslash` {
		t.Fatalf("escaped reason round-trip = %q", got)
	}
}

func TestTraceHeaderLine(t *testing.T) {
	tr := NewTrace("scenario-x")
	first, _, _ := strings.Cut(string(tr.Bytes()), "\n")
	if !strings.Contains(first, formatHeader) || !strings.Contains(first, "scenario-x") {
		t.Fatalf("header line = %q", first)
	}
}

func TestTraceEventCounters(t *testing.T) {
	tr := NewTrace("unit")
	o := tr.Origin("net")
	o.FaultInjected(time.Second, "blackout(path=0)", "start")
	o.FaultInjected(2*time.Second, "blackout(path=0)", "end")
	c := tr.Registry().Counter(MetricTraceEvents.With("name", string(EvFaultInjected)))
	if c.Value() != 2 {
		t.Fatalf("event counter = %d, want 2", c.Value())
	}
}

// TestNoopTracerZeroAlloc is the tentpole's overhead guarantee: with the
// no-op (nil) tracer, every emit call on the packet-send path must cost
// zero allocations.
func TestNoopTracerZeroAlloc(t *testing.T) {
	var o *Origin // the disabled tracer, exactly as an uninstrumented Conn holds it
	allocs := testing.AllocsPerRun(1000, func() {
		o.PacketSent(time.Millisecond, 0, 1, 1200, "1rtt")
		o.PacketReceived(time.Millisecond, 0, 1200)
		o.PacketAcked(time.Millisecond, 0, 1)
		o.PacketLost(time.Millisecond, 0, 1, 1200, "time")
		o.MetricsUpdated(time.Millisecond, 0, 13500, 1200, true, time.Millisecond)
		o.ReinjectSend(time.Millisecond, 0, 4, 0, 1200)
		o.QoEDecision(time.Millisecond, 0, 0, 0, 0, true)
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer emit path allocates: %v allocs/run", allocs)
	}
	var tr *Trace
	if tr.Origin("client") != nil {
		t.Fatal("nil Trace must yield nil Origin")
	}
}

// TestNilOriginIsSilent calls the emitters TestNoopTracerZeroAlloc leaves
// out on the disabled tracer: none may panic.
func TestNilOriginIsSilent(t *testing.T) {
	var o *Origin
	o.FaultInjected(time.Second, "blackout(path=0)", "start")
	o.Anomaly(time.Second, "error_close")
	o.Scorecard(time.Second, &Scorecard{NumPaths: 1})
	o.BatchFlush(time.Second, 0, 16)
}

// TestEventSpecsFitARecord checks the spec table against the record: every
// event but the scorecard is named once, and its values fit.
func TestEventSpecsFitARecord(t *testing.T) {
	seen := map[EventName]bool{}
	for ev, spec := range eventSpecs {
		if spec.name == "" || seen[spec.name] {
			t.Fatalf("event %d: name %q missing or repeated", ev, spec.name)
		}
		seen[spec.name] = true
		var nums, strs int
		for _, f := range spec.fields {
			if f.kind == kindStr {
				strs++
			} else {
				nums++
			}
		}
		if nums > recordNums || strs > recordStrs {
			t.Errorf("%s: %d numeric and %d string fields, a record holds %d and %d",
				spec.name, nums, strs, recordNums, recordStrs)
		}
	}
	if size := unsafe.Sizeof(record{}); size > 112 {
		t.Errorf("a record is %d bytes, want at most 112", size)
	}
}

func TestRegistryDumpDeterministic(t *testing.T) {
	mk := func() *Registry {
		r := NewRegistry()
		r.Counter("b_total").Add(2)
		r.Counter("a_total").Inc()
		r.Gauge("g").Set(1.5)
		h := r.Histogram("h_ms", []float64{10, 100})
		h.Observe(5)
		h.Observe(50)
		h.Observe(500)
		return r
	}
	d1, d2 := dumpString(mk()), dumpString(mk())
	if d1 != d2 {
		t.Fatalf("registry dump not deterministic:\n%s\nvs\n%s", d1, d2)
	}
	for _, want := range []string{
		"a_total 1\n", "b_total 2\n", "g 1.5\n",
		`h_ms_bucket{le="10"} 1`, `h_ms_bucket{le="100"} 2`, `h_ms_bucket{le="+Inf"} 3`,
		"h_ms_sum 555\n", "h_ms_count 3\n",
	} {
		if !strings.Contains(d1, want) {
			t.Fatalf("dump missing %q:\n%s", want, d1)
		}
	}
	// Counters come before gauges before histograms, each sorted.
	if strings.Index(d1, "a_total") > strings.Index(d1, "b_total") {
		t.Fatalf("counters unsorted:\n%s", d1)
	}
}

func TestRegistryReuse(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("Counter must return the same instance per name")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Fatal("Gauge must return the same instance per name")
	}
	if r.Histogram("x", []float64{1}) != r.Histogram("x", nil) {
		t.Fatal("Histogram must return the same instance per name")
	}
}
