package chaos

import (
	"testing"
	"time"

	"repro/internal/lb"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// corpusCase pairs a Corpus scenario (by name) with the invariants it must
// uphold. The scenario definitions themselves live in corpus.go so
// cmd/xlinkqlog can replay them outside the test binary.
type corpusCase struct {
	sc Scenario
	// completes requires the full video to arrive intact before Deadline.
	completes bool
	// stallBound caps MaxStall (0 = no bound asserted).
	stallBound time.Duration
	// check runs scenario-specific assertions on the result.
	check func(t *testing.T, r Result)
}

// corpus joins the exported scenarios with their test invariants.
func corpus() []corpusCase {
	meta := map[string]corpusCase{
		"blackout-primary": {completes: true, stallBound: 3 * time.Second},
		"blackout-rolling": {completes: true, stallBound: 3 * time.Second},
		"burst-loss":       {completes: true, stallBound: 5 * time.Second},
		"rtt-spike":        {completes: true, stallBound: 3 * time.Second},
		"dup-reorder": {completes: true, stallBound: 3 * time.Second,
			check: func(t *testing.T, r Result) {
				if r.ClientStats.DuplicateBytesRecv == 0 {
					t.Error("duplication script produced no duplicate bytes")
				}
			}},
		"handshake-loss": {completes: true, stallBound: 5 * time.Second,
			check: func(t *testing.T, r Result) {
				if r.ClientState != "established" {
					t.Errorf("client state %q, want established", r.ClientState)
				}
			}},
		"interface-death": {completes: true, stallBound: 4 * time.Second,
			check: func(t *testing.T, r Result) {
				if r.ClientStats.AutoAbandonedPaths == 0 {
					t.Error("dead primary never abandoned")
				}
				if r.AlivePaths != 1 {
					t.Errorf("alive paths %d, want 1", r.AlivePaths)
				}
			}},
		"total-death": {
			check: func(t *testing.T, r Result) {
				if r.Completed {
					t.Error("transfer completed despite total death at 1s")
				}
				if !r.ClientTerminated || !r.ServerTerminated {
					t.Errorf("states client=%q server=%q, want both closed",
						r.ClientState, r.ServerState)
				}
				if r.ClientStats.CloseErrorCode != transport.ErrCodeIdleTimeout {
					t.Errorf("client close code %#x, want idle timeout",
						r.ClientStats.CloseErrorCode)
				}
				if r.EventsAfter != 0 {
					t.Errorf("event loop still live after both terminated: %d events",
						r.EventsAfter)
				}
			}},
		"handshake-death": {
			check: func(t *testing.T, r Result) {
				if r.Completed || r.StreamBytesRecv != 0 {
					t.Error("data moved over dead paths")
				}
				if !r.ClientTerminated {
					t.Errorf("client state %q, want closed", r.ClientState)
				}
				st := r.ClientStats
				if st.CloseErrorCode != transport.ErrCodeHandshakeTimeout || !st.CloseLocal {
					t.Errorf("close info %+v, want local handshake timeout", st)
				}
				if r.EventsAfter != 0 {
					t.Errorf("event loop still live after handshake give-up: %d events",
						r.EventsAfter)
				}
			}},
		"ge-heavy-burst": {completes: true, stallBound: 5 * time.Second,
			check: func(t *testing.T, r Result) {
				if r.ServerStats.FECWindowsSent == 0 || r.ServerStats.FECRepairsSent == 0 {
					t.Error("FEC scenario sent no repair symbols")
				}
				if r.ClientStats.FECRecoveredBytes == 0 {
					t.Error("heavy bursts never triggered an FEC recovery")
				}
				if r.FECDecisions == 0 {
					t.Error("redundancy controller never consulted")
				}
			}},
		"ge-dual-reinject-only": {completes: true, stallBound: 8 * time.Second,
			check: func(t *testing.T, r Result) {
				if r.ServerStats.FECWindowsSent != 0 {
					t.Error("baseline must not send FEC frames")
				}
				if r.FECDecisions != 0 {
					t.Error("gate consulted without FEC negotiation")
				}
			}},
		"ge-dual-fec-only": {completes: true, stallBound: 8 * time.Second,
			check: func(t *testing.T, r Result) {
				if r.ServerStats.ReinjectedBytesSent != 0 {
					t.Error("re-injection disabled but bytes re-injected")
				}
				if r.ServerStats.FECWindowsSent == 0 {
					t.Error("FEC-only scenario sent no windows")
				}
				if r.ClientStats.FECRecoveredBytes == 0 {
					t.Error("FEC-only scenario never recovered a symbol")
				}
			}},
		"ge-dual-both": {completes: true, stallBound: 8 * time.Second,
			check: func(t *testing.T, r Result) {
				if r.ServerStats.FECWindowsSent == 0 {
					t.Error("both-lanes scenario sent no FEC windows")
				}
				if r.ClientStats.FECRecoveredBytes == 0 {
					t.Error("both-lanes scenario never recovered a symbol")
				}
			}},
	}
	var cases []corpusCase
	for _, sc := range Corpus() {
		tc, ok := meta[sc.Name]
		if !ok {
			panic("corpus scenario without test metadata: " + sc.Name)
		}
		tc.sc = sc
		cases = append(cases, tc)
	}
	return cases
}

// TestChaosCorpus runs every scenario and asserts the shared invariants
// (integrity, bounded stall) plus the per-scenario checks.
func TestChaosCorpus(t *testing.T) {
	for _, tc := range corpus() {
		tc := tc
		t.Run(tc.sc.Name, func(t *testing.T) {
			r := Run(tc.sc)
			if r.VerifyErrors != 0 {
				t.Errorf("%d content verification errors", r.VerifyErrors)
			}
			if tc.completes && !r.Completed {
				t.Errorf("transfer incomplete: %d bytes received, states client=%q server=%q",
					r.StreamBytesRecv, r.ClientState, r.ServerState)
			}
			if tc.stallBound > 0 && r.MaxStall > tc.stallBound {
				t.Errorf("max stall %v exceeds bound %v with a path alive",
					r.MaxStall, tc.stallBound)
			}
			if tc.check != nil {
				tc.check(t, r)
			}
		})
	}
}

// TestChaosDeterminism runs stochastic scenarios twice and requires
// byte-identical results — every counter, state string, and stall figure.
// This is what makes a chaos failure replayable from just (name, seed).
func TestChaosDeterminism(t *testing.T) {
	for _, tc := range corpus() {
		switch tc.sc.Name {
		case "burst-loss", "dup-reorder", "handshake-loss", "ge-dual-both":
			a, b := Run(tc.sc), Run(tc.sc)
			if a != b {
				t.Errorf("%s: same seed produced different results:\n  %+v\n  %+v",
					tc.sc.Name, a, b)
			}
		}
	}
}

// TestChaosSeedSensitivity guards against the harness accidentally ignoring
// the seed (which would make the determinism test vacuous): a stochastic
// scenario under a different seed must differ somewhere.
func TestChaosSeedSensitivity(t *testing.T) {
	tc := corpus()[2] // burst-loss
	a := Run(tc.sc)
	tc.sc.Seed++
	b := Run(tc.sc)
	if a == b {
		t.Fatal("different seeds produced identical results; harness is not seeding")
	}
}

// TestChaosFECBeatsReinjectionOnRebuffer is the recovery-lane acceptance
// comparison (ISSUE 7): under correlated dual-path burst loss with tight
// bandwidth headroom, racing FEC alongside re-injection must strictly beat
// re-injection alone on the player's rebuffer totals — proactive repair
// symbols land where every reactive copy is an RTT (or a second burst)
// away. Same seed, same script, same topology; only the lanes differ.
func TestChaosFECBeatsReinjectionOnRebuffer(t *testing.T) {
	base, ok := ScenarioByName("ge-dual-reinject-only")
	if !ok {
		t.Fatal("ge-dual-reinject-only missing from corpus")
	}
	both, ok := ScenarioByName("ge-dual-both")
	if !ok {
		t.Fatal("ge-dual-both missing from corpus")
	}
	rb, rr := Run(base), Run(both)
	if !rb.Completed || !rr.Completed {
		t.Fatalf("transfers incomplete: reinject-only=%v both=%v", rb.Completed, rr.Completed)
	}
	if rr.ClientStats.FECRecoveredBytes == 0 {
		t.Fatal("both-lanes run never exercised the FEC decoder")
	}
	if rb.RebufferTime == 0 {
		t.Fatal("baseline never rebuffered; the comparison is vacuous — retune the scenario")
	}
	if rr.RebufferTime >= rb.RebufferTime {
		t.Fatalf("FEC+re-injection rebuffered %v (%d stalls), re-injection-only %v (%d stalls); want strict improvement",
			rr.RebufferTime, rr.RebufferCount, rb.RebufferTime, rb.RebufferCount)
	}
	t.Logf("rebuffer: reinject-only %v (%d stalls) -> both lanes %v (%d stalls); fec recovered %d bytes, suppressed %d rtx bytes",
		rb.RebufferTime, rb.RebufferCount, rr.RebufferTime, rr.RebufferCount,
		rr.ClientStats.FECRecoveredBytes, rr.ServerStats.FECSuppressedBytes)
}

// TestChaosBackendRemoval is the load-balancer failure scenario: a
// multi-path connection established through the lb.Router loses its backend
// mid-transfer (a crash: the router still routes to it, and nothing
// answers). The client — receiving nothing — must reach terminal closure via
// its idle timeout, with the event loop quiescing afterwards.
func TestChaosBackendRemoval(t *testing.T) {
	loop := sim.NewLoop()
	env := transport.SimEnv{Loop: loop}
	rng := sim.NewRNG(21)
	cfgs := []netem.PathConfig{
		{Name: "wifi", Tech: trace.TechWiFi, Up: trace.ConstantRate("w", 20, time.Second), OneWayDelay: 10 * time.Millisecond},
		{Name: "lte", Tech: trace.TechLTE, Up: trace.ConstantRate("l", 20, time.Second), OneWayDelay: 30 * time.Millisecond},
	}
	nw := netem.NewNetwork(loop, rng, cfgs)

	params := wire.DefaultTransportParams()
	params.EnableMultipath = true

	client := transport.NewConn(env, transport.NetemSender{Network: nw, Client: true},
		transport.Config{IsClient: true, Params: params, Seed: 1,
			IdleTimeout: 1500 * time.Millisecond})
	mkServer := func(id byte) *transport.Conn {
		return transport.NewConn(env, transport.NetemSender{Network: nw},
			transport.Config{Params: params, Seed: int64(id), ServerID: id,
				IdleTimeout: 1500 * time.Millisecond})
	}
	s1, s2 := mkServer(1), mkServer(2)

	router := lb.NewRouter(8)
	var s1pkts, s2pkts, lost int
	var crashed byte // the backend that no longer answers
	router.AddBackend(1, lb.BackendFunc(func(netIdx int, data []byte) {
		if crashed == 1 {
			lost++
			return
		}
		s1pkts++
		s1.HandleDatagram(loop.Now(), netIdx, data)
	}))
	router.AddBackend(2, lb.BackendFunc(func(netIdx int, data []byte) {
		if crashed == 2 {
			lost++
			return
		}
		s2pkts++
		s2.HandleDatagram(loop.Now(), netIdx, data)
	}))

	nw.Attach(
		func(now time.Duration, pathIdx int, data []byte) {
			client.HandleDatagram(now, pathIdx, data)
		},
		func(now time.Duration, pathIdx int, data []byte) {
			router.Forward(pathIdx, data)
		})

	client.AddInterface(0, trace.TechWiFi)
	client.AddInterface(1, trace.TechLTE)
	client.SetOnHandshakeDone(func(now time.Duration) {
		s := client.OpenStream()
		s.Write(make([]byte, 4<<20)) // ~1.6 s at 20 Mbps: still in flight at removal
		s.Close()
	})
	if err := client.Start(); err != nil {
		t.Fatal(err)
	}

	loop.RunUntil(400 * time.Millisecond)
	if !client.Established() {
		t.Fatal("handshake through LB failed")
	}
	owner := byte(1)
	if s2pkts > s1pkts {
		owner = 2
	}
	crashed = owner

	loop.RunUntil(30 * time.Second)
	if lost == 0 || router.RoutedByID == 0 {
		t.Fatalf("%d packets reached the crashed backend, %d were routed by ID: the client stopped sending at once", lost, router.RoutedByID)
	}
	if !client.Terminated() {
		t.Fatalf("client state %q, want terminal closed after backend loss", client.StateName())
	}
	if st := client.Stats(); st.CloseErrorCode != transport.ErrCodeIdleTimeout {
		t.Fatalf("client close code %#x, want idle timeout", st.CloseErrorCode)
	}
	ownerConn := s1
	if owner == 2 {
		ownerConn = s2
	}
	if !ownerConn.Terminated() {
		t.Fatalf("owning backend state %q, want terminal closed", ownerConn.StateName())
	}
	if n := loop.Run(64); n != 0 {
		t.Fatalf("event loop still live after all endpoints terminated: %d events", n)
	}
}
