package chaos

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// lastConnState returns the new state of origin's last conn:state_changed
// event in an NDJSON trace, "" when it traced none. Only lines naming the
// event are decoded.
func lastConnState(t *testing.T, trace []byte, origin string) string {
	t.Helper()
	last := ""
	for _, line := range bytes.Split(trace, []byte{'\n'}) {
		if !bytes.Contains(line, []byte(obs.EvConnState)) {
			continue
		}
		evs, err := obs.ParseBytes(line)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			if e.Origin == origin && e.Name == obs.EvConnState {
				last = e.Str("new")
			}
		}
	}
	return last
}

// TestChaosCorpusScorecards: every corpus scenario's Result carries a
// composed per-session scorecard that reconciles with the Result's own
// counters — the acceptance criterion that fleet rollups see exactly what
// the harness measured. The same runs carry a tracer for the lifecycle
// invariant: an endpoint that ends terminated traced its entry into closed
// (total-death gets there by idle timeout, handshake-death by the
// handshake give-up; TestCloseLifecycleStates covers the drain expiry).
func TestChaosCorpusScorecards(t *testing.T) {
	for _, sc := range Corpus() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			sc.Tracer = obs.NewTrace(sc.Name)
			res := Run(sc)
			for _, ep := range []struct {
				origin     string
				terminated bool
			}{{"client", res.ClientTerminated}, {"server", res.ServerTerminated}} {
				if got := lastConnState(t, sc.Tracer.Bytes(), ep.origin); ep.terminated && got != "closed" {
					t.Errorf("%s ended terminated, but its last traced state is %q", ep.origin, got)
				}
			}
			card := res.Scorecard
			// A failed handshake legitimately leaves no established
			// paths; any session that moved payload must report them.
			if card.NumPaths == 0 && res.StreamBytesRecv > 0 {
				t.Fatal("scorecard has no paths")
			}
			if card.Completed != res.Completed {
				t.Errorf("card.Completed = %v, res.Completed = %v", card.Completed, res.Completed)
			}
			if res.Completed && card.RCT <= 0 {
				t.Errorf("completed session with RCT %v", card.RCT)
			}
			if card.ReinjBytes != res.ServerStats.ReinjectedBytesSent {
				t.Errorf("card.ReinjBytes = %d, server stats = %d",
					card.ReinjBytes, res.ServerStats.ReinjectedBytesSent)
			}
			if card.StreamBytes != res.ServerStats.StreamBytesSent {
				t.Errorf("card.StreamBytes = %d, server stats = %d",
					card.StreamBytes, res.ServerStats.StreamBytesSent)
			}
			if card.FECRecoveredBytes != res.ClientStats.FECRecoveredBytes {
				t.Errorf("card.FECRecoveredBytes = %d, client stats = %d",
					card.FECRecoveredBytes, res.ClientStats.FECRecoveredBytes)
			}
			if card.QoEDecisions != res.QoEDecisions || card.QoEEnables != res.QoEEnables {
				t.Errorf("card QoE %d/%d, res %d/%d",
					card.QoEDecisions, card.QoEEnables, res.QoEDecisions, res.QoEEnables)
			}
			if card.RebufferTime != res.RebufferTime ||
				card.RebufferCount != uint64(res.RebufferCount) {
				t.Errorf("card rebuffer %v/%d, res %v/%d",
					card.RebufferTime, card.RebufferCount, res.RebufferTime, res.RebufferCount)
			}
			// Per-path utilization shares must roughly partition the
			// connection (integer truncation loses at most 1‰ per path).
			var util uint64
			for i := 0; i < card.NumPaths; i++ {
				util += card.Paths[i].UtilPermille
			}
			if card.StreamBytes > 0 && (util > 1000 || util < 1000-uint64(card.NumPaths)) {
				t.Errorf("path utilization sums to %d‰", util)
			}
		})
	}
}

// TestInterfaceDeathFlightDump is the fault→post-mortem acceptance
// criterion: a permanent primary death must leave a non-empty
// flight-recorder dump naming the path_auto_abandoned anomaly, whose
// events parse and end with the trigger itself.
func TestInterfaceDeathFlightDump(t *testing.T) {
	sc, ok := ScenarioByName("interface-death")
	if !ok {
		t.Fatal("interface-death scenario missing")
	}
	tr := obs.NewTrace(sc.Name)
	sc.Tracer = tr
	res := Run(sc)

	if res.ClientStats.AutoAbandonedPaths == 0 {
		t.Fatal("scenario no longer auto-abandons — flight assertion moot")
	}
	if res.Anomalies == 0 || res.FirstAnomaly == "" {
		t.Fatalf("no anomalies recorded: count=%d first=%q", res.Anomalies, res.FirstAnomaly)
	}
	var dump *obs.AnomalyDump
	for i, d := range tr.Flight().Dumps() {
		if d.Reason == "path_auto_abandoned" {
			dump = &tr.Flight().Dumps()[i]
			break
		}
	}
	if dump == nil {
		t.Fatalf("no path_auto_abandoned dump; first anomaly %q", res.FirstAnomaly)
	}
	evs, err := obs.ParseBytes(dump.Events)
	if err != nil {
		t.Fatalf("dump is not valid NDJSON: %v", err)
	}
	if len(evs) < 2 {
		t.Fatalf("dump has only %d events", len(evs))
	}
	last := evs[len(evs)-1]
	if last.Name != obs.EvAnomaly || last.Str("reason") != "path_auto_abandoned" {
		t.Errorf("dump does not end with its trigger: %v %q", last.Name, last.Str("reason"))
	}
}

// TestChaosFlightAlwaysOn: with no tracer supplied, the run still records
// into a ring and surfaces anomaly facts on the Result.
func TestChaosFlightAlwaysOn(t *testing.T) {
	sc, ok := ScenarioByName("interface-death")
	if !ok {
		t.Fatal("interface-death scenario missing")
	}
	res := Run(sc) // sc.Tracer nil
	if res.Anomalies == 0 || res.FirstAnomaly == "" {
		t.Errorf("tracer-less run recorded no anomalies: count=%d first=%q",
			res.Anomalies, res.FirstAnomaly)
	}
	// The scorecard rides along too.
	if res.Scorecard.NumPaths == 0 {
		t.Error("tracer-less run has empty scorecard")
	}
}

// TestScorecardInTrace: the conn:scorecard event in the NDJSON stream
// round-trips to exactly the Result's scorecard.
func TestScorecardInTrace(t *testing.T) {
	sc := goldenScenario()
	tr := obs.NewTrace(sc.Name)
	sc.Tracer = tr
	res := Run(sc)

	evs, err := obs.ParseBytes(tr.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var got obs.Scorecard
	found := false
	for _, e := range evs {
		if c, ok := obs.ScorecardFromEvent(e); ok {
			if found {
				t.Fatal("more than one scorecard event")
			}
			got, found = c, true
		}
	}
	if !found {
		t.Fatal("no conn:scorecard event in trace")
	}
	if got != res.Scorecard {
		t.Errorf("trace scorecard != result scorecard:\n%+v\n%+v", got, res.Scorecard)
	}
	// And the registry merged it.
	if n := tr.Registry().Counter(obs.MetricSessions).Value(); n != 1 {
		t.Errorf("xlink_sessions_total = %d, want 1", n)
	}
}

// TestFlightRingMatchesStream: the ring keeps records and renders them when
// read, the NDJSON stream renders them as they are emitted, and both use
// one renderer. So over every corpus scenario, traced in full with the ring
// attached, the ring's snapshot is byte for byte the stream's last lines —
// scorecards excluded, since no record holds one.
func TestFlightRingMatchesStream(t *testing.T) {
	for _, sc := range Corpus() {
		t.Run(sc.Name, func(t *testing.T) {
			tr := obs.NewTrace(sc.Name)
			sc.Tracer = tr
			Run(sc)
			fr := tr.Flight()
			lines := bytes.SplitAfter(tr.Bytes(), []byte("\n"))[1:] // past the header
			var kept [][]byte
			for _, l := range lines {
				if len(l) > 0 && !bytes.Contains(l, []byte(`"name":"`+obs.EvScorecard+`"`)) {
					kept = append(kept, l)
				}
			}
			if len(kept) > obs.DefaultFlightSlots {
				kept = kept[len(kept)-obs.DefaultFlightSlots:]
			}
			if want, got := bytes.Join(kept, nil), fr.Snapshot(); !bytes.Equal(got, want) {
				t.Fatalf("ring snapshot (%d bytes) differs from the stream's last %d lines (%d bytes)",
					len(got), len(kept), len(want))
			}
		})
	}
}
