package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestFlightRecorderRing checks the overwrite-oldest contract: with a
// 4-slot ring, only the last 4 events survive, oldest first.
func TestFlightRecorderRing(t *testing.T) {
	tr := NewFlightTrace("ring", 4)
	o := tr.Origin("c")
	for i := 0; i < 10; i++ {
		o.PacketAcked(time.Duration(i)*time.Millisecond, 0, uint64(i))
	}
	evs, err := ParseBytes(tr.Flight().Snapshot())
	if err != nil {
		t.Fatalf("snapshot parse: %v", err)
	}
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(6 + i); e.U64("pn") != want {
			t.Errorf("event %d pn = %d, want %d", i, e.U64("pn"), want)
		}
	}
	if tr.Bytes() != nil && len(tr.Bytes()) != 0 {
		t.Errorf("flight-only trace accumulated %d NDJSON bytes", len(tr.Bytes()))
	}
}

// TestFlightRecorderAnomalyDump checks the trigger path: the dump is
// non-empty valid NDJSON, ends with the anomaly:triggered event naming the
// reason, and the trigger counters advance.
func TestFlightRecorderAnomalyDump(t *testing.T) {
	tr := NewFlightTrace("anomaly", 8)
	o := tr.Origin("c")
	for i := 0; i < 3; i++ {
		o.PacketLost(time.Duration(i)*time.Millisecond, 0, uint64(i), 1200, "pto")
	}
	o.Anomaly(5*time.Millisecond, "rebuffer_stall")

	fr := tr.Flight()
	if fr.Anomalies() != 1 || fr.FirstAnomaly() != "rebuffer_stall" {
		t.Fatalf("anomalies = %d first = %q", fr.Anomalies(), fr.FirstAnomaly())
	}
	dumps := fr.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("dumps = %d, want 1", len(dumps))
	}
	d := dumps[0]
	if d.Reason != "rebuffer_stall" || d.Time != 5*time.Millisecond || len(d.Events) == 0 {
		t.Fatalf("dump = %+v", d)
	}
	evs, err := ParseBytes(d.Events)
	if err != nil {
		t.Fatalf("dump parse: %v", err)
	}
	last := evs[len(evs)-1]
	if last.Name != EvAnomaly || last.Str("reason") != "rebuffer_stall" {
		t.Errorf("dump does not end with the trigger event: %+v", last)
	}
	if got := tr.Registry().Counter(MetricAnomalies).Value(); got != 1 {
		t.Errorf("anomaly counter = %d, want 1", got)
	}
}

// TestFlightRecorderDumpCap checks retention stays bounded while the
// trigger counter keeps counting.
func TestFlightRecorderDumpCap(t *testing.T) {
	tr := NewFlightTrace("cap", 4)
	o := tr.Origin("c")
	for i := 0; i < maxAnomalyDumps+5; i++ {
		o.Anomaly(time.Duration(i)*time.Millisecond, "error_close")
	}
	fr := tr.Flight()
	if len(fr.Dumps()) != maxAnomalyDumps {
		t.Errorf("dumps = %d, want cap %d", len(fr.Dumps()), maxAnomalyDumps)
	}
	if fr.Anomalies() != maxAnomalyDumps+5 {
		t.Errorf("anomalies = %d, want %d", fr.Anomalies(), maxAnomalyDumps+5)
	}
}

// TestFlightRecorderTruncation checks what a record cannot hold: a
// scorecard, whose field count varies, is counted and left out of the ring
// (keeping dumps valid NDJSON), while a long string is kept whole — a
// record holds the string, not a copy of its bytes.
func TestFlightRecorderTruncation(t *testing.T) {
	tr := NewFlightTrace("trunc", 4)
	o := tr.Origin("c")
	o.PacketAcked(0, 0, 7)
	long := strings.Repeat("x", 1024)
	o.FaultInjected(time.Millisecond, long, "start")
	o.Scorecard(2*time.Millisecond, &Scorecard{NumPaths: 2})
	snap := tr.Flight().Snapshot()
	evs, err := ParseBytes(snap)
	if err != nil {
		t.Fatalf("snapshot not valid NDJSON: %v", err)
	}
	if len(evs) != 2 || evs[1].Name != EvFaultInjected || evs[1].Str("op") != long {
		t.Errorf("ring = %d events, want the ack and the whole fault op", len(evs))
	}
	if bytes.Contains(snap, []byte(EvScorecard)) {
		t.Error("scorecard leaked into the snapshot")
	}
	if tr.EventCount() != 3 {
		t.Errorf("EventCount = %d, want 3: a scorecard left out of the ring is still an event", tr.EventCount())
	}
}

// TestNDJSONTraceWithFlightRecorder checks both sinks see the same events
// when a ring is attached to a full trace.
func TestNDJSONTraceWithFlightRecorder(t *testing.T) {
	tr := NewTrace("both")
	fr := tr.AttachFlightRecorder(16)
	o := tr.Origin("c")
	o.PacketAcked(time.Millisecond, 0, 1)
	o.PacketAcked(2*time.Millisecond, 0, 2)

	full, err := ParseBytes(tr.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ring, err := ParseBytes(fr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 2 || len(ring) != 2 {
		t.Fatalf("full %d ring %d events, want 2/2", len(full), len(ring))
	}
	if tr.AttachFlightRecorder(64) != fr {
		t.Error("re-attach replaced the existing ring")
	}
}
