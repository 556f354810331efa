// Package abtest emulates the paper's large-scale A/B methodology
// (Sec 7.2): day-seeded populations of short-video sessions, each run
// under multiple transport arms over identical network conditions (paired
// comparison), with the aggregate metrics the paper reports — request
// completion time percentiles, rebuffer rate, first-video-frame latency,
// buffer-occupancy distribution, and redundant-traffic cost.
//
// The production experiment observed millions of plays across 100K+
// devices; this harness reproduces the distributional shape by drawing
// sessions from a heterogeneous mixture of network conditions (stable
// dual-homed, fast-varying Wi-Fi, congested cellular, cross-ISP-inflated
// secondary paths) seeded per day.
package abtest

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/video"
)

// Arm is one experiment arm.
type Arm struct {
	Name    string
	Scheme  core.Scheme
	Options core.Options
}

// Population parameterizes one day's session draw.
type Population struct {
	// Day seeds the day-to-day variation of the paper's tables.
	Day int
	// Sessions is the number of video plays.
	Sessions int
	// Seed is the experiment-level base seed.
	Seed int64
}

// ArmResult aggregates one arm's metrics over a population.
type ArmResult struct {
	Name string

	RCTs        []float64 // seconds, per chunk
	FirstFrames []float64 // seconds, per session
	Startups    []float64 // seconds, per session

	RebufferTime time.Duration
	PlayTime     time.Duration
	Rebuffers    int

	// Danger counters reproduce Table 2's buffer-level <50 ms metric.
	DangerSamples int
	TotalSamples  int

	// Traffic accounting for the cost overhead.
	StreamBytes uint64
	RtxBytes    uint64
	ReinjBytes  uint64

	// BufferLevels collects play-time-left samples (seconds) after
	// start-up, the distribution used to calibrate thresholds (Sec 7.1).
	BufferLevels []float64

	Sessions  int
	Completed int

	// Registry accumulates every session's scorecard into the xlink_*
	// metric families (DESIGN.md §14) — the arm's fleet-telemetry view,
	// dumped alongside the significance tables.
	Registry *obs.Registry
}

// RebufferRate returns sum(rebuffer)/sum(play).
func (r *ArmResult) RebufferRate() float64 {
	if r.PlayTime <= 0 {
		return 0
	}
	return float64(r.RebufferTime) / float64(r.PlayTime)
}

// CostOverhead returns re-injected bytes over all stream bytes.
func (r *ArmResult) CostOverhead() float64 {
	total := r.StreamBytes + r.RtxBytes + r.ReinjBytes
	if total == 0 {
		return 0
	}
	return float64(r.ReinjBytes) / float64(total)
}

// DangerFraction returns the fraction of buffer samples below 50 ms.
func (r *ArmResult) DangerFraction() float64 {
	if r.TotalSamples == 0 {
		return 0
	}
	return float64(r.DangerSamples) / float64(r.TotalSamples)
}

// RCTSummary summarizes chunk request completion times.
func (r *ArmResult) RCTSummary() stats.Summary { return stats.Summarize(r.RCTs) }

// conditionClass is the network mixture component of a session.
type conditionClass int

const (
	condGood conditionClass = iota
	condUnstableWiFi
	condCongested
	// condBadSecondary has a healthy Wi-Fi but a terrible LTE secondary
	// (cross-ISP, congested, lossy, with outage windows). Single-path
	// never touches it, but a min-RTT multi-path scheduler splits chunks
	// onto it and inherits its tail — the Sec 3.3 pathology that makes
	// vanilla-MP worse than SP at the 99th percentile.
	condBadSecondary
)

// unstableWiFiTrace builds a fast Wi-Fi trace with periodic hand-off
// outages of one to three seconds — the fast-varying regime of Fig 1a.
func unstableWiFiTrace(rng *sim.RNG, dur time.Duration) *trace.Trace {
	base := rng.Uniform(12, 26)
	outPeriod := rng.Uniform(6, 12)
	outLen := rng.Uniform(1.5, 4.0)
	phase := rng.Uniform(0, outPeriod)
	return trace.FromRateFunc("unstable-wifi", dur, func(t time.Duration) float64 {
		s := t.Seconds() + phase
		if math.Mod(s, outPeriod) < outLen {
			return 0
		}
		return base
	})
}

// badLTETrace builds a barely-alive cellular trace with periodic outage
// windows.
func badLTETrace(rng *sim.RNG, dur time.Duration) *trace.Trace {
	base := rng.Uniform(0.4, 1.5)
	outPeriod := rng.Uniform(3, 7)
	outLen := rng.Uniform(1.5, 3.5)
	return trace.FromRateFunc("bad-lte", dur, func(t time.Duration) float64 {
		s := t.Seconds()
		if math.Mod(s, outPeriod) < outLen {
			return 0
		}
		return base
	})
}

// session is one play of the population, drawn in two halves from its own
// fork of the day's RNG. The caller forks the RNGs in session order (the fork
// chain is order-sensitive) and draws the class and video, which are cheap
// and fix the job order; the network — trace synthesis, the expensive half —
// and the seed are drawn on a worker, once, by whichever of the session's
// arms starts first, continuing the same fork. Either way the draws are the
// ones a single sequential pass makes.
type session struct {
	rng   *sim.RNG
	class conditionClass
	v     video.Video

	drawn sync.Once
	paths []netem.PathConfig // shared read-only by every arm of the session
	seed  int64
}

// drawClass picks a session's network mixture component.
func drawClass(rng *sim.RNG) conditionClass {
	switch x := rng.Float64(); {
	case x < 0.45:
		return condGood
	case x < 0.70:
		return condUnstableWiFi
	case x < 0.82:
		return condCongested
	default:
		return condBadSecondary
	}
}

// drawVideo generates the video of a session.
func drawVideo(rng *sim.RNG) video.Video {
	return video.Video{
		ID:             "v",
		Size:           uint64(rng.Uniform(1.5, 5)) << 20,
		BitrateBps:     uint64(rng.Uniform(1.5e6, 3.5e6)),
		FPS:            []uint64{24, 25, 30}[rng.Intn(3)],
		FirstFrameSize: uint64(rng.Uniform(40, 120)) << 10,
	}
}

// drawNetwork generates the paths of a session of the given class playing v.
func drawNetwork(rng *sim.RNG, class conditionClass, v video.Video) []netem.PathConfig {
	wifiDelay := trace.DelayWiFi.SampleOneWay(rng)
	lteDelay := trace.DelayLTE.SampleOneWay(rng)
	// Secondary (LTE) path often crosses ISP borders (Appendix A).
	if rng.Bool(0.5) {
		from := trace.ISP(rng.Intn(3))
		to := trace.ISP(rng.Intn(3))
		lteDelay = trace.InflateCrossISP(lteDelay, from, to)
	}

	dur := v.Duration() + 10*time.Second
	var wifi, lte *trace.Trace
	var wifiLoss, lteLoss float64
	switch class {
	case condGood:
		wifi = trace.ConstantRate("wifi", rng.Uniform(10, 28), time.Second)
		lte = trace.ConstantRate("lte", rng.Uniform(6, 18), time.Second)
		wifiLoss, lteLoss = 0.001, 0.002
	case condUnstableWiFi:
		wifi = unstableWiFiTrace(rng, dur)
		lte = trace.WalkingLTE(rng, dur)
		wifiLoss, lteLoss = 0.005, 0.003
	case condCongested:
		wifi = trace.ConstantRate("wifi", rng.Uniform(2.5, 6), time.Second)
		lte = trace.ConstantRate("lte", rng.Uniform(2, 5), time.Second)
		wifiLoss, lteLoss = rng.Uniform(0.005, 0.02), rng.Uniform(0.005, 0.02)
	case condBadSecondary:
		// Wi-Fi alone keeps just ahead of the bitrate, so any stall a
		// scheduler inherits from the broken secondary drains the player.
		wifiMbps := float64(v.BitrateBps) / 1e6 * rng.Uniform(1.3, 2.5)
		wifi = trace.ConstantRate("wifi", wifiMbps, time.Second)
		lte = badLTETrace(rng, dur)
		wifiLoss, lteLoss = 0.001, rng.Uniform(0.02, 0.05)
		lteDelay += time.Duration(rng.Uniform(150, 350)) * time.Millisecond
	}
	return []netem.PathConfig{
		{Name: "wifi", Tech: trace.TechWiFi, Up: wifi, OneWayDelay: wifiDelay, LossRate: wifiLoss},
		{Name: "lte", Tech: trace.TechLTE, Up: lte, OneWayDelay: lteDelay, LossRate: lteLoss},
	}
}

// drawRest draws the worker's half of the session: its network, then its seed.
func (s *session) drawRest() {
	s.paths = drawNetwork(s.rng, s.class, s.v)
	s.seed = s.rng.Int63()
}

// config is the emulated play of the session under arm.
func (s *session) config(arm Arm) core.SessionConfig {
	return core.SessionConfig{
		Scheme:    arm.Scheme,
		Options:   arm.Options,
		Paths:     s.paths,
		Video:     s.v,
		Seed:      s.seed,
		Requester: video.RequesterConfig{ChunkSize: 256 << 10, MaxConcurrent: 2, MaxBufferAhead: 2500 * time.Millisecond},
		Deadline:  s.v.Duration() + 30*time.Second,
	}
}

// RunParallel executes the population under every arm with paired conditions
// on up to workers goroutines, and returns the same whatever the worker
// count (DESIGN.md §21). The sessions' RNGs are forked in order on the
// caller; the jobs are session-arms, handed out largest video first so that
// the longest plays do not start last and leave the other workers idle at
// the end; a session's network is drawn by the first of its arms to start;
// and the outcomes are folded in session order, arms in the order given.
// Each job writes only its own outcome slot, so the slots need no lock; the
// WaitGroup join publishes the writes. workers <= 1 starts no goroutine.
func RunParallel(pop Population, arms []Arm, workers int) map[string]*ArmResult {
	base := sim.NewRNG(pop.Seed).Fork(fmt.Sprintf("day-%d", pop.Day))
	sessions := make([]session, pop.Sessions)
	order := make([]int, 0, pop.Sessions*len(arms)) // job i is session i/len(arms), arm i%len(arms)
	for i := range sessions {
		s := &sessions[i]
		s.rng = base.Fork(fmt.Sprintf("session-%d", i))
		s.class = drawClass(s.rng)
		s.v = drawVideo(s.rng)
		for a := range arms {
			order = append(order, i*len(arms)+a)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		return sessions[order[i]/len(arms)].v.Size > sessions[order[j]/len(arms)].v.Size
	})

	type outcome struct {
		ok  bool
		res core.SessionResult
	}
	outs := make([]outcome, len(order))
	run := func(job int) {
		s := &sessions[job/len(arms)]
		s.drawn.Do(s.drawRest)
		res, err := core.RunSession(s.config(arms[job%len(arms)]))
		outs[job] = outcome{ok: err == nil, res: res}
	}
	if workers = min(workers, len(order)); workers <= 1 {
		for _, job := range order {
			run(job)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			// Each job runs a complete session-arm whose transport state is
			// created inside this goroutine and never leaves it.
			go func() {
				defer wg.Done()
				for job := range jobs {
					run(job)
				}
			}()
		}
		for _, job := range order {
			jobs <- job
		}
		close(jobs)
		wg.Wait()
	}

	results := make(map[string]*ArmResult, len(arms))
	for _, arm := range arms {
		results[arm.Name] = &ArmResult{Name: arm.Name}
	}
	for job, o := range outs {
		if o.ok {
			accumulate(results[arms[job%len(arms)].Name], sessions[job/len(arms)].v, o.res)
		}
	}
	return results
}

// accumulate folds one session's result into the arm aggregate.
func accumulate(a *ArmResult, v video.Video, res core.SessionResult) {
	a.Sessions++
	if res.Completed {
		a.Completed++
	}
	if a.Registry == nil {
		a.Registry = obs.NewRegistry()
	}
	a.Registry.MergeScorecard(&res.Scorecard)
	for _, rct := range res.ChunkRCTs {
		a.RCTs = append(a.RCTs, rct.Seconds())
	}
	m := res.Metrics
	if m.FirstFrameLatency > 0 {
		a.FirstFrames = append(a.FirstFrames, m.FirstFrameLatency.Seconds())
	}
	if m.StartupLatency > 0 {
		a.Startups = append(a.Startups, m.StartupLatency.Seconds())
	}
	a.RebufferTime += m.RebufferTime
	a.PlayTime += m.PlayTime
	a.Rebuffers += m.RebufferCount

	a.StreamBytes += res.ServerStats.StreamBytesSent
	a.RtxBytes += res.ServerStats.RtxBytesSent
	a.ReinjBytes += res.ServerStats.ReinjectedBytesSent

	// Buffer-level distribution during playback (Sec 7.1 footnote 16): after
	// start-up and before the finish instant. A fill-up grace period after
	// playback starts is excluded: every scheme begins with a near-empty
	// buffer, and schemes that start *sooner* would otherwise be charged
	// extra danger samples for the ramp the slower schemes skip by starting
	// later. Samples from the finish on are excluded too: the session keeps
	// ticking until its deadline, 30 s past the video's duration, and an
	// empty buffer after the last frame played is no graze.
	rate := v.BytesPerSecond()
	if rate > 0 && res.BufferSeries != nil && m.StartupLatency > 0 {
		grace := m.StartupLatency + 2*time.Second
		for i, bytes := range res.BufferSeries.Values {
			ts := res.BufferSeries.Times[i]
			if ts <= grace {
				continue
			}
			if m.Finished && ts >= m.FinishedAt {
				break
			}
			dt := bytes / rate
			a.BufferLevels = append(a.BufferLevels, dt)
			a.TotalSamples++
			if dt < video.DangerLevel.Seconds() {
				a.DangerSamples++
			}
		}
	}
}

// Improvement compares an arm against a baseline for a "lower is better"
// metric extracted by f, in percent (positive = arm better).
func Improvement(baseline, arm *ArmResult, f func(*ArmResult) float64) float64 {
	b, a := f(baseline), f(arm)
	if b == 0 {
		return 0
	}
	return (b - a) / b * 100
}
