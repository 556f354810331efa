package chaos

import (
	"testing"

	"repro/internal/obs"
)

// eventCount tallies events by (origin, name).
func eventCount(evs []obs.Event, origin string, name obs.EventName) int {
	n := 0
	for _, e := range evs {
		if e.Origin == origin && e.Name == name {
			n++
		}
	}
	return n
}

// TestChaosTraceConsistency replays a fault-heavy scenario with a tracer
// attached and reconciles the event stream against the Result counters: the
// trace must not invent events the transport did not count, and the
// counters must not hide activity the trace missed. This is the
// observability analogue of the determinism invariant — the trace is a
// faithful, complete account of the run.
func TestChaosTraceConsistency(t *testing.T) {
	sc, ok := ScenarioByName("interface-death")
	if !ok {
		t.Fatal("interface-death missing from corpus")
	}
	sc.Tracer = obs.NewTrace(sc.Name)
	r := Run(sc)

	evs, err := obs.ParseBytes(sc.Tracer.Bytes())
	if err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if uint64(len(evs)) != sc.Tracer.EventCount() {
		t.Errorf("parsed %d events, trace counted %d", len(evs), sc.Tracer.EventCount())
	}

	// Every scripted fault op must appear on the "net" timeline.
	for _, op := range sc.Script.Ops {
		found := false
		for _, e := range evs {
			if e.Origin == "net" && e.Name == obs.EvFaultInjected && e.Str("op") == op.String() {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("scripted op %s has no fault:injected event", op)
		}
	}

	// Receive counters: PacketReceived is emitted at exactly the
	// RecvPackets++ sites, so the counts must match per endpoint.
	if n := eventCount(evs, "client", obs.EvPacketReceived); uint64(n) != r.ClientStats.RecvPackets {
		t.Errorf("client trace has %d packet_received, stats say %d", n, r.ClientStats.RecvPackets)
	}
	if n := eventCount(evs, "server", obs.EvPacketReceived); uint64(n) != r.ServerStats.RecvPackets {
		t.Errorf("server trace has %d packet_received, stats say %d", n, r.ServerStats.RecvPackets)
	}

	// Re-injection: the per-event byte sum must equal the server's
	// ReinjectedBytesSent counter.
	var reinjBytes uint64
	for _, e := range evs {
		if e.Origin == "server" && e.Name == obs.EvReinjectSend {
			reinjBytes += e.U64("bytes")
		}
	}
	if reinjBytes != r.ServerStats.ReinjectedBytesSent {
		t.Errorf("trace re-injected %d bytes, stats say %d", reinjBytes, r.ServerStats.ReinjectedBytesSent)
	}

	// Alg. 1: every Decide call must have left a decision event carrying
	// both thresholds and the verdict, and the enable tally must agree.
	var decisions, enables uint64
	for _, e := range evs {
		if e.Name != obs.EvQoEDecision {
			continue
		}
		decisions++
		if e.Bool("enable") {
			enables++
		}
		if e.Dur("tth1") <= 0 || e.Dur("tth2") < e.Dur("tth1") {
			t.Errorf("decision event with malformed thresholds: %+v", e.Data)
		}
	}
	if decisions != r.QoEDecisions || enables != r.QoEEnables {
		t.Errorf("trace has %d/%d qoe decisions/enables, controller says %d/%d",
			decisions, enables, r.QoEDecisions, r.QoEEnables)
	}
	if decisions == 0 {
		t.Error("no qoe:reinjection_decision events in a re-injecting run")
	}

	// Path lifecycle: the PTO give-up rule is the only abandon source in
	// this scenario.
	if n := eventCount(evs, "client", obs.EvPathAbandoned); uint64(n) != r.ClientStats.AutoAbandonedPaths {
		t.Errorf("client trace has %d path:abandoned, stats say %d", n, r.ClientStats.AutoAbandonedPaths)
	}

	// The video pipeline must have traced its milestones.
	for _, name := range []obs.EventName{obs.EvVideoFrameCached, obs.EvVideoPlaybackStart, obs.EvVideoFinished} {
		if eventCount(evs, "client", name) == 0 {
			t.Errorf("no %s event from the player", name)
		}
	}

	// Timestamps are sim-clock and the stream is append-only, so each
	// origin's events must be non-decreasing in time.
	last := map[string]int64{}
	for _, e := range evs {
		if int64(e.Time) < last[e.Origin] {
			t.Fatalf("origin %s time went backwards: %v", e.Origin, e.Time)
		}
		last[e.Origin] = int64(e.Time)
	}

	// The registry counted every emitted event by name.
	reg := sc.Tracer.Registry()
	if got := reg.Counter(obs.MetricTraceEvents.With("name", string(obs.EvPacketSent))).Value(); got == 0 {
		t.Error("registry has no packet_sent count")
	}
}

// TestChaosTraceDeterminism is the trace-level determinism invariant: the
// same (scenario, seed) must produce a byte-identical event stream, which
// is what makes traces diffable across runs and branches.
func TestChaosTraceDeterminism(t *testing.T) {
	run := func() []byte {
		sc, _ := ScenarioByName("blackout-primary")
		sc.Tracer = obs.NewTrace(sc.Name)
		Run(sc)
		return sc.Tracer.Bytes()
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatal("same (scenario, seed) produced different traces")
	}
}

// TestChaosTracerDoesNotPerturb asserts that attaching a tracer does not
// change the run itself: Results with and without tracing must be ==.
func TestChaosTracerDoesNotPerturb(t *testing.T) {
	sc, _ := ScenarioByName("rtt-spike")
	plain := Run(sc)
	sc.Tracer = obs.NewTrace(sc.Name)
	traced := Run(sc)
	if plain != traced {
		t.Fatalf("tracer perturbed the run:\n  plain:  %+v\n  traced: %+v", plain, traced)
	}
}
