package chaos

import (
	"time"

	"repro/internal/faults"
	"repro/internal/netem"
	"repro/internal/transport"
)

// enableFEC is the Tweak opting a scenario into the FEC recovery lane: the
// harness always wires the QoE redundancy controller as the gate, so turning
// the transport parameter on at both endpoints is all negotiation needs.
func enableFEC(ccfg, scfg *transport.Config) {
	ccfg.Params.EnableFEC = true
	scfg.Params.EnableFEC = true
}

// heavyGE is the aggressive Gilbert–Elliott profile for the FEC-lane
// scenarios: ~5% average loss in bursts averaging ~3 packets (bad-state
// dwell ~6.7 packets at 80% drop), heavy enough that the ACK-driven lane
// alone visibly hurts the player.
func heavyGE() faults.GEConfig {
	return faults.GEConfig{PGoodBad: 0.015, PBadGood: 0.08, LossGood: 0, LossBad: 0.8}
}

// geDualScript applies heavy correlated burst loss to both paths — the
// regime where re-injection's "duplicate onto the other path" bet degrades,
// because the other path is bursting too.
func geDualScript() faults.Script {
	return faults.Script{Name: "ge-dual", Ops: []faults.Op{
		faults.BurstLoss{Path: 0, From: 0, To: 30 * time.Second, GE: heavyGE()},
		faults.BurstLoss{Path: 1, From: 0, To: 30 * time.Second, GE: heavyGE()},
	}}
}

// geDualPaths is a latency-bound topology: enough bandwidth that repair
// symbols are affordable, but RTTs long enough (300/600 ms) that any
// reactive recovery — retransmission or a re-injected copy — arrives a
// round trip late. Under heavy burst loss the recovery lane's speed then
// decides whether the player stalls, which is what the ge-dual-* triplet
// measures.
func geDualPaths() []netem.PathConfig {
	return transport.TwoPathConfig(3, 3, 150*time.Millisecond, 300*time.Millisecond)
}

// Corpus returns the chaos suite: thirteen scripted fault scenarios
// exercising every fault class over the full video pipeline. The test suite
// asserts invariants over these; cmd/xlinkqlog replays them with a tracer
// attached to produce inspectable event streams. Each call returns fresh
// values, so callers may mutate (attach tracers, bump seeds) freely.
//
// The last four scenarios exercise the FEC recovery lane (DESIGN.md §13):
// ge-heavy-burst turns it on under single-path-dominant burst loss, and the
// ge-dual-* triplet runs the same correlated dual-path loss under
// re-injection only, FEC only, and both lanes racing — sharing one seed so
// their Results are directly comparable.
func Corpus() []Scenario {
	return []Scenario{
		{
			// Primary blackout: wifi drops for a second mid-transfer; the
			// survivor must carry the stream with bounded stall.
			Name: "blackout-primary", Seed: 101,
			Script: faults.Script{Name: "blackout-primary", Ops: []faults.Op{
				faults.Blackout{Path: 0, From: 500 * time.Millisecond, To: 1500 * time.Millisecond},
			}},
			VideoBytes: 2 << 20,
		},
		{
			// Rolling blackouts: the outages overlap for 300 ms with zero
			// paths alive — that window must not count as stall, and the
			// transfer must still finish once a path returns.
			Name: "blackout-rolling", Seed: 102,
			Script: faults.Script{Name: "blackout-rolling", Ops: []faults.Op{
				faults.Blackout{Path: 0, From: 400 * time.Millisecond, To: 1200 * time.Millisecond},
				faults.Blackout{Path: 1, From: 900 * time.Millisecond, To: 1700 * time.Millisecond},
			}},
			VideoBytes: 2 << 20,
		},
		{
			// Gilbert–Elliott burst loss on both paths for the whole run:
			// loss recovery must deliver every byte intact.
			Name: "burst-loss", Seed: 103,
			Script: faults.Script{Name: "burst-loss", Ops: []faults.Op{
				faults.BurstLoss{Path: 0, From: 0, To: 30 * time.Second, GE: faults.DefaultGE()},
				faults.BurstLoss{Path: 1, From: 0, To: 30 * time.Second, GE: faults.DefaultGE()},
			}},
		},
		{
			// RTT spike on the primary (bufferbloat / radio retries): the
			// path turns suspect, traffic shifts, then recovers.
			Name: "rtt-spike", Seed: 104,
			Script: faults.Script{Name: "rtt-spike", Ops: []faults.Op{
				faults.RTTSpike{Path: 0, From: 500 * time.Millisecond, To: 2 * time.Second, Extra: 400 * time.Millisecond},
			}},
			VideoBytes: 2 << 20,
		},
		{
			// Duplication + reordering on both paths: the receive path must
			// discard duplicates and reassemble out-of-order data exactly.
			Name: "dup-reorder", Seed: 105,
			Script: faults.Script{Name: "dup-reorder", Ops: []faults.Op{
				faults.DupReorder{Path: 0, From: 0, To: 30 * time.Second,
					DupRate: 0.05, ReorderRate: 0.1, ReorderDelay: 30 * time.Millisecond},
				faults.DupReorder{Path: 1, From: 0, To: 30 * time.Second,
					DupRate: 0.05, ReorderRate: 0.1, ReorderDelay: 30 * time.Millisecond},
			}},
		},
		{
			// Handshake-packet targeting: half of all long-header packets
			// vanish for 2 s; the PTO machinery must still establish and
			// the transfer must finish.
			Name: "handshake-loss", Seed: 106,
			Script: faults.Script{Name: "handshake-loss", Ops: []faults.Op{
				faults.HandshakeLoss{Path: 0, From: 0, To: 2 * time.Second, Rate: 0.5},
				faults.HandshakeLoss{Path: 1, From: 0, To: 2 * time.Second, Rate: 0.5},
			}},
		},
		{
			// Permanent primary death mid-transfer: clean single-path
			// fallback — the PTO give-up rule abandons the dead path 0 and
			// the transfer completes on the survivor.
			Name: "interface-death", Seed: 107,
			Script: faults.Script{Name: "interface-death", Ops: []faults.Op{
				faults.InterfaceDeath{Path: 0, At: 500 * time.Millisecond},
			}},
			VideoBytes: 4 << 20,
		},
		{
			// Total death mid-transfer: both interfaces die for good. Both
			// endpoints must reach the terminal closed state via idle
			// timeout and the event loop must quiesce — no leaked timers.
			Name: "total-death", Seed: 108,
			Script: faults.Script{Name: "total-death", Ops: []faults.Op{
				faults.InterfaceDeath{Path: 0, At: time.Second},
				faults.InterfaceDeath{Path: 1, At: time.Second},
			}},
			VideoBytes: 16 << 20, // big enough to still be in flight at 1 s
			Tweak: func(ccfg, scfg *transport.Config) {
				ccfg.IdleTimeout = 2 * time.Second
				scfg.IdleTimeout = 2 * time.Second
			},
		},
		{
			// Death before the handshake: the client must give up after its
			// PTO budget, surface a terminal handshake-timeout error, and
			// leave no timers behind.
			Name: "handshake-death", Seed: 109,
			Script: faults.Script{Name: "handshake-death", Ops: []faults.Op{
				faults.InterfaceDeath{Path: 0, At: 0},
				faults.InterfaceDeath{Path: 1, At: 0},
			}},
			Tweak: func(ccfg, scfg *transport.Config) {
				ccfg.HandshakeMaxPTOs = 3
			},
		},
		{
			// Heavy Gilbert–Elliott bursts with the FEC lane negotiated:
			// repair symbols must recover data without waiting out RTTs,
			// and the decoder must survive windows the bursts overwhelm
			// (give-up, classic lanes finish).
			Name: "ge-heavy-burst", Seed: 110,
			Script: faults.Script{Name: "ge-heavy-burst", Ops: []faults.Op{
				faults.BurstLoss{Path: 0, From: 0, To: 30 * time.Second, GE: heavyGE()},
				faults.BurstLoss{Path: 1, From: 0, To: 30 * time.Second, GE: faults.DefaultGE()},
			}},
			VideoBytes: 2 << 20,
			Tweak:      enableFEC,
		},
		{
			// Baseline of the recovery-lane comparison: correlated dual-path
			// burst loss with QoE re-injection as the only proactive lane.
			Name: "ge-dual-reinject-only", Seed: 111,
			Paths: geDualPaths(), Script: geDualScript(),
			VideoBytes: 2 << 20,
		},
		{
			// Same faults, FEC as the only proactive lane: re-injection off,
			// repair symbols sized by the redundancy controller.
			Name: "ge-dual-fec-only", Seed: 111,
			Paths: geDualPaths(), Script: geDualScript(),
			VideoBytes: 2 << 20,
			Tweak: func(ccfg, scfg *transport.Config) {
				enableFEC(ccfg, scfg)
				scfg.ReinjectionMode = transport.ReinjectNone
			},
		},
		{
			// Both lanes racing — XLINK's full recovery stack. Shares the
			// baseline's seed so the Results differ only by configuration.
			Name: "ge-dual-both", Seed: 111,
			Paths: geDualPaths(), Script: geDualScript(),
			VideoBytes: 2 << 20,
			Tweak:      enableFEC,
		},
	}
}

// ScenarioByName returns the corpus scenario with the given name.
func ScenarioByName(name string) (Scenario, bool) {
	for _, sc := range Corpus() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}
