package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"time"

	"repro/internal/abtest"
	"repro/internal/core"
	"repro/internal/obs"
)

// fleetAB is the fleet-ab workload: one A/B population of short sessions,
// each played under the SP and XLINK arms, through abtest.RunParallel.
type fleetAB struct{}

func (fleetAB) name() string { return wlFleet }

var fleetArms = []abtest.Arm{
	{Name: "SP", Scheme: core.SchemeSinglePath},
	{Name: "XLINK", Scheme: core.SchemeXLINK},
}

func fleetPopulation(sc scale, seed int64) abtest.Population {
	return abtest.Population{Day: 1, Sessions: sc.fleetSessions, Seed: seed}
}

// workers is the load generator's parallelism: one worker per CPU.
func workers() int { return runtime.NumCPU() }

// fleetOutcome is what abtest's result exposes, folded over the arms.
type fleetOutcome struct {
	arms        int // session-arms expected
	ran         int // session-arms that produced a result
	completed   int // of those, plays that fetched the whole video in time
	streamBytes uint64
	serverPkts  uint64
	playedS     float64
	digest      uint64
	xlink       *abtest.ArmResult
}

func fleetOutcomeOf(pop abtest.Population, res map[string]*abtest.ArmResult) fleetOutcome {
	o := fleetOutcome{arms: pop.Sessions * len(fleetArms), xlink: res["XLINK"]}
	h := fnv.New64a()
	for _, arm := range fleetArms {
		r := res[arm.Name]
		if r == nil {
			continue
		}
		o.ran += r.Sessions
		o.completed += r.Completed
		o.streamBytes += r.StreamBytes
		o.playedS += r.PlayTime.Seconds()
		if r.Registry != nil {
			o.serverPkts += counterValue(r.Registry, obs.MetricPathSentPackets)
		}
		fmt.Fprintf(h, "%s %d %d %d %d %d %d %d %d %d|", r.Name, r.Sessions, r.Completed,
			r.RebufferTime, r.PlayTime, r.Rebuffers, r.StreamBytes, r.RtxBytes, r.ReinjBytes, r.TotalSamples)
		for _, v := range r.RCTs {
			fmt.Fprintf(h, "%x,", v)
		}
	}
	o.digest = h.Sum64()
	return o
}

// counterValue reads one counter (summed over its labels) from a registry.
func counterValue(reg *obs.Registry, name obs.MetricName) uint64 {
	var v uint64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name || strings.HasPrefix(string(c.Name), string(name)+"{") {
			v += c.Value
		}
	}
	return v
}

// setup is one set-up unit: a small population through the same entry point.
func (fleetAB) setup(sc scale, seed int64) error {
	pop := fleetPopulation(sc, seed)
	o := fleetOutcomeOf(pop, abtest.RunParallel(pop, fleetArms, workers()))
	if o.ran != o.arms {
		return fmt.Errorf("fleet-ab set-up: %d of %d session-arms produced a result", o.ran, o.arms)
	}
	return nil
}

// run executes one population and measures it. A session-arm is the
// operation: it fails if it produced no result. A play that did not finish
// its video inside the emulated deadline is an outcome of the drawn network
// conditions, reported as abtest.completed_share, not a failed operation.
func (fleetAB) run(sc scale, seed int64, base int64, nworkers int) (repSample, fleetOutcome) {
	pop := fleetPopulation(sc, seed)
	runtime.GC() // every repetition starts from a collected heap
	start := readUsage()
	res := abtest.RunParallel(pop, fleetArms, nworkers)
	c := readUsage().since(start)
	retained := liveHeap() - base
	o := fleetOutcomeOf(pop, res)
	runtime.KeepAlive(res)
	return repSample{
		cost: c, appBytes: o.streamBytes, goodputBytes: o.streamBytes, goodputWallS: c.wallS,
		serverPkts: o.serverPkts, sessions: o.ran,
		retained: retained, playedS: o.playedS,
		attempted: o.arms, failed: o.arms - o.ran,
	}, o
}

func (w fleetAB) rep(sc scale, seed int64, base int64, first *fleetOutcome) (repSample, error) {
	r, o := w.run(sc, seed, base, workers())
	switch {
	case first.arms == 0:
		// Keep the digest only: holding the arm results would count the
		// first repetition's samples into every later retained-heap reading.
		*first = fleetOutcome{arms: o.arms, digest: o.digest}
	case o.digest != first.digest:
		r.broken = "fleet result digest differs from the first repetition (determinism break)"
		r.failed = r.attempted
	}
	return r, nil
}

// fleetQoE are the XLINK arm's virtual-time QoE outputs.
func fleetQoE(x *abtest.ArmResult) map[string]float64 {
	secs := func(vs []float64) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v * float64(time.Second))
		}
		return out
	}
	return qoeValues(secs(x.RCTs), secs(x.FirstFrames), x.RebufferTime, x.Sessions)
}
