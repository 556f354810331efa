// Package chaos is the scripted fault-injection harness: it runs a
// core.Session (the full client/server video pipeline) while a
// faults.Script degrades the emulated network, and
// measures the invariants the robustness work promises (ISSUE 2):
//
//   - integrity: every received byte matches the synthesized content
//     (Requester verifies against video.SynthesizeContent per stream);
//   - liveness: application-level delivery never stalls longer than a bound
//     while at least one path is administratively up;
//   - fallback: permanent death of the primary path degrades to the
//     survivor instead of wedging the connection;
//   - termination: when everything dies, both endpoints reach a terminal
//     closed state and the event loop quiesces (no leaked timers);
//   - determinism: the same (scenario, seed) pair reproduces the exact same
//     Result, byte for byte.
//
// Everything runs on the sim clock with labeled RNG forks, so a Result is a
// pure function of the Scenario.
package chaos

import (
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/video"
)

// Scenario describes one chaos run: a topology, a fault script, and the
// video transfer driven across it.
type Scenario struct {
	// Name labels the scenario in failures and listings.
	Name string
	// Seed derives every RNG in the run (network, transport, faults).
	Seed int64
	// Paths is the emulated topology; nil means the standard two-path
	// Wi-Fi(10 Mbps, 20 ms) + LTE(10 Mbps, 60 ms) setup.
	Paths []netem.PathConfig
	// Script is the fault schedule applied over the topology.
	Script faults.Script
	// VideoBytes sizes the transfer (default 1 MiB).
	VideoBytes uint64
	// Deadline bounds the simulated run (default 30 s).
	Deadline time.Duration
	// Tweak, when set, adjusts the endpoint configs (idle timeouts,
	// handshake PTO budgets, ...) before the pair is built. It runs after
	// the harness defaults (including the re-injection + QoE wiring), so
	// it can override them.
	Tweak func(ccfg, scfg *transport.Config)
	// Tracer, when set, collects the run's qlog-style event stream: both
	// endpoints emit as "client"/"server", the fault injector as "net",
	// and the player and QoE controller alongside. nil skips the NDJSON
	// stream but NOT the flight recorder: every run keeps a last-N event
	// ring so injected faults always produce anomaly dumps (DESIGN.md
	// §14). Tracing never touches the RNGs or the clock, so it does not
	// perturb the run either way.
	Tracer *obs.Trace
}

// Result is the fully comparable outcome of a run: two Results from the
// same Scenario must be ==, which is the determinism invariant.
type Result struct {
	// Completed reports whether the requester fetched the whole video.
	Completed bool
	// VerifyErrors counts content-integrity mismatches (must be 0).
	VerifyErrors int
	// StreamBytesRecv is the application payload the client received.
	StreamBytesRecv uint64
	// MaxStall is the longest gap between stream-data arrivals at the
	// client while the transfer was incomplete, the connection open, and
	// at least one path alive. Dead-air with zero live paths is not
	// charged: with no path there is nothing the transport could do.
	MaxStall time.Duration
	// ClientStats / ServerStats are the transport counters at Deadline.
	ClientStats, ServerStats transport.ConnStats
	// ClientState / ServerState are the lifecycle states at Deadline.
	ClientState, ServerState string
	// ClientTerminated / ServerTerminated report terminal closure.
	ClientTerminated, ServerTerminated bool
	// ClientPrimary is the client's primary path ID at Deadline.
	ClientPrimary uint64
	// AlivePaths counts administratively-up paths at Deadline.
	AlivePaths int
	// EventsAfter is how many events still ran when the loop was driven
	// past Deadline (bounded probe). 0 means the loop quiesced — the
	// no-leaked-timer invariant for terminal scenarios.
	EventsAfter int
	// QoEDecisions / QoEEnables count the server-side Alg. 1 evaluations
	// and how many enabled re-injection — reconciled against the trace's
	// qoe:reinjection_decision events.
	QoEDecisions, QoEEnables uint64
	// FECDecisions / FECProtects count the redundancy controller's verdicts
	// and how many protected a window (0/0 when FEC was not negotiated).
	FECDecisions, FECProtects uint64
	// RebufferTime / RebufferCount are the player's stall totals at
	// Deadline — the paper's QoE metric the recovery lanes compete on.
	RebufferTime  time.Duration
	RebufferCount int
	// Scorecard is the per-session QoE rollup (DESIGN.md §14), composed
	// from the server-side transport, the Alg. 1 controller and the
	// player, emitted as conn:scorecard and merged into the tracer's
	// registry.
	Scorecard obs.Scorecard
	// Anomalies counts flight-recorder triggers during the run;
	// FirstAnomaly names the first ("" when none fired).
	Anomalies    uint64
	FirstAnomaly string
}

// stallTick is the liveness sampling interval.
const stallTick = 25 * time.Millisecond

// quiesceBudget bounds the post-deadline event probe.
const quiesceBudget = 64

// Run executes the scenario and returns its Result.
func Run(sc Scenario) Result {
	if sc.Paths == nil {
		sc.Paths = transport.TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond)
	}
	if sc.VideoBytes == 0 {
		sc.VideoBytes = 1 << 20
	}
	if sc.Deadline == 0 {
		sc.Deadline = 30 * time.Second
	}

	// The flight recorder is always on: with no user tracer the run gets a
	// ring-only trace (no NDJSON accumulation, zero steady-state
	// allocation), and a supplied tracer gets a ring attached, so every
	// injected fault produces a usable anomaly dump either way.
	tr := sc.Tracer
	if tr == nil {
		tr = obs.NewFlightTrace(sc.Name, 0)
	}
	tr.AttachFlightRecorder(0)

	rng := sim.NewRNG(sc.Seed)
	// The server runs XLINK's QoE-gated stream-priority re-injection so the
	// chaos corpus exercises Alg. 1 under faults (not just vanilla-MP). The
	// FEC lane's gate is wired too, but it is only consulted once both
	// endpoints negotiate EnableFEC, which scenarios opt into via Tweak.
	s := core.NewSession(core.SessionConfig{
		Scheme: core.SchemeXLINK,
		Paths:  sc.Paths,
		Video: video.Video{
			ID: "chaos", Size: sc.VideoBytes,
			BitrateBps: 2_000_000, FPS: 30, FirstFrameSize: 32 << 10,
		},
		Seed:     rng.ForkSeed("net"),
		Deadline: sc.Deadline,
		Configure: func(ccfg, scfg *transport.Config) {
			ccfg.Seed, scfg.Seed = sc.Seed, sc.Seed+1
			scfg.ReinjectionMode = transport.ReinjectStreamPriority
			ccfg.Tracer = tr.Origin("client")
			scfg.Tracer = tr.Origin("server")
			if sc.Tweak != nil {
				sc.Tweak(ccfg, scfg)
			}
		},
	})
	loop, pair, req, x := s.Loop, s.Pair, s.Requester, s.XLINK
	x.Controller.SetTracer(tr.Origin("server"))
	x.Redundancy.SetTracer(tr.Origin("server"))
	s.Player.SetTracer(tr.Origin("client"))
	injector := faults.NewInjector(loop, pair.Network, rng.Fork("faults"))
	injector.SetTracer(tr.Origin("net"))
	injector.Apply(sc.Script)

	// Wrap the requester's stream callback to observe application-level
	// progress: the liveness invariant is about payload reaching the
	// client, not about transport chatter (PTO probes, ACKs) arriving.
	var streamBytes uint64
	var completedAt time.Duration // first instant req.Done() held — the session RCT
	pair.Client.SetOnStreamData(func(now time.Duration, rs *transport.RecvStream, data []byte, fin bool) {
		streamBytes += uint64(len(data))
		req.OnStreamData(now, rs, data, fin)
		if completedAt == 0 && req.Done() {
			completedAt = now
		}
	})

	// The stall clock starts at the first possible data byte (handshake
	// completion); handshake latency is the PTO machinery's problem and is
	// covered by the termination invariant instead.
	var started bool
	var lastProgress time.Duration
	var lastBytes uint64
	var maxStall time.Duration
	pair.Client.SetOnHandshakeDone(func(now time.Duration) {
		started = true
		lastProgress = now
		req.Start(now)
	})

	var tick func(now time.Duration)
	tick = func(now time.Duration) {
		s.Player.Advance(now)
		req.Poll(now)
		switch {
		case !started, req.Done(), pair.Client.Closed(),
			faults.AliveCount(pair.Network) == 0:
			// Nothing deliverable is owed: reset rather than charge.
			lastProgress = now
		case streamBytes > lastBytes:
			lastBytes = streamBytes
			lastProgress = now
		default:
			if stall := now - lastProgress; stall > maxStall {
				maxStall = stall
			}
		}
		// Stop rescheduling at the deadline so the sampler itself cannot
		// keep the loop alive during the quiesce probe.
		if now+stallTick <= sc.Deadline {
			loop.After(stallTick, tick)
		}
	}
	loop.After(stallTick, tick)

	var res Result
	if err := pair.Start(); err != nil {
		res.ClientState = "start-error"
		return res
	}
	pair.RunUntil(sc.Deadline)

	res.Completed = req.Done()
	res.VerifyErrors = req.VerifyErrors()
	res.StreamBytesRecv = streamBytes
	res.MaxStall = maxStall
	res.ClientStats = pair.Client.Stats()
	res.ServerStats = pair.Server.Stats()
	res.ClientState = pair.Client.StateName()
	res.ServerState = pair.Server.StateName()
	res.ClientTerminated = pair.Client.Terminated()
	res.ServerTerminated = pair.Server.Terminated()
	res.ClientPrimary = pair.Client.PrimaryPathID()
	res.AlivePaths = faults.AliveCount(pair.Network)
	res.EventsAfter = int(loop.Run(quiesceBudget))
	res.QoEDecisions, res.QoEEnables = x.Controller.Stats()
	res.FECDecisions, res.FECProtects = x.Redundancy.Stats()
	m := s.Player.Metrics(sc.Deadline)
	res.RebufferTime = m.RebufferTime
	res.RebufferCount = m.RebufferCount

	// The per-session scorecard is emitted at the loop's final instant so
	// per-origin event times stay monotonic even after the quiesce probe,
	// then merged into the registry.
	card := x.Scorecard(pair, m, res.Completed, completedAt)
	tr.Origin("server").Scorecard(loop.Now(), &card)
	tr.Registry().MergeScorecard(&card)
	res.Scorecard = card
	fr := tr.Flight()
	res.Anomalies = fr.Anomalies()
	res.FirstAnomaly = fr.FirstAnomaly()
	return res
}
