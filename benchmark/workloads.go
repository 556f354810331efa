package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/video"
)

// scale sizes the fixed work of one repetition.
type scale struct {
	videoBytes    uint64 // sim-bulk video size
	fleetSessions int    // fleet-ab sessions per arm
	tinyRequests  int    // live-rr tiny-phase requests
	chunkRequests int    // live-rr chunk-phase requests
}

// plan is everything that sizes a run: the work of one repetition, the small
// run inside each set-up unit, and the probe suite's effort.
type plan struct {
	work, setup scale
	// minReps is the fewest timed repetitions a run makes.
	minReps int
	// setupUnits is how many set-up units run (setup_s is their median).
	setupUnits int
	// probeRounds is how often each probe runs (the median is reported);
	// probeShrink divides every probe's iteration count.
	probeRounds, probeShrink int
}

// fullPlan is the measured work; every reported number uses it.
var fullPlan = plan{
	work:        scale{videoBytes: 32 << 20, fleetSessions: 50, tinyRequests: 1000, chunkRequests: 500},
	setup:       scale{videoBytes: 4 << 20, fleetSessions: 8, tinyRequests: 100, chunkRequests: 20},
	minReps:     5,
	setupUnits:  7,
	probeRounds: 5, probeShrink: 1,
}

const (
	// runSeconds is the timed wall of a run; BENCHMARK.json's run_seconds,
	// which the driver passes back as --seconds, carries the same value.
	runSeconds = 25
	maxReps    = 200
	// maxTimedS keeps a run inside the driver's 180 s limit on a slow box.
	maxTimedS = 120.0
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	name() string
	// setup runs one set-up unit.
	setup(sc scale, seed int64) error
	// newRep returns the function that runs one timed repetition; state it
	// keeps across calls (the first repetition's outcome) lives in the closure.
	// base is the live heap before the run built anything.
	newRep(sc scale, seed int64, base int64) func() (repSample, error)
	// traced runs the per-layer measurement within about budgetS seconds.
	traced(p plan, seed int64, budgetS float64, log io.Writer) (*layerResult, error)
}

func workloadByName(name string) (workload, bool) {
	switch name {
	case wlBulkClean:
		return simBulk{wl: wlBulkClean}, true
	case wlBulkLossy:
		return simBulk{wl: wlBulkLossy, lossy: true}, true
	case wlFleet:
		return fleetAB{}, true
	case wlLive:
		return &liveRR{}, true
	}
	return nil, false
}

func (w simBulk) newRep(sc scale, seed int64, base int64) func() (repSample, error) {
	var first simOutcome
	return func() (repSample, error) { return w.rep(sc, seed, base, &first) }
}

func (w fleetAB) newRep(sc scale, seed int64, base int64) func() (repSample, error) {
	var first fleetOutcome
	return func() (repSample, error) { return w.rep(sc, seed, base, &first) }
}

func (w *liveRR) newRep(sc scale, seed int64, base int64) func() (repSample, error) {
	in := newLiveInputs(seed)
	return func() (repSample, error) {
		o, err := w.session(in, sc, base, nil)
		return o.sample(sc), err
	}
}

// verdict is a run's output checking: operations attempted and failed, and
// whether every output check held.
type verdict struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Broken    []string `json:"broken,omitempty"`
}

func (v *verdict) count(r repSample) {
	v.Attempted += r.attempted
	v.Failed += r.failed
	if r.failed > 0 {
		v.Correct = false
	}
	if r.broken != "" {
		v.fail(r.broken)
	}
}

func (v *verdict) fail(why string) {
	v.Correct = false
	v.Broken = append(v.Broken, why)
}

func (v verdict) ok() bool { return v.Correct }

// e2eResult is one workload's end-to-end measurement.
type e2eResult struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Reps     int                `json:"reps"`
	TimedS   float64            `json:"timed_s"`
	Metrics  map[string]summary `json:"metrics"`
	verdict
}

// runE2E measures one workload with tracing off: one untimed warm-up
// repetition (it pays for growing the heap and the runtime's first-use
// allocations; its output is checked like any other), then fixed-work
// repetitions for about seconds of wall time, at least p.minReps of them,
// with one set-up unit after each (any still owed run at the end), so a slow
// second on the box cannot hit every set-up unit at once. The run stops at
// the repetition boundary nearest the target and so overshoots by at most
// half a repetition.
//
// retained_heap_MiB is the smallest reading over the repetitions, the warm-up
// included, not their median, because what disturbs it only ever adds: on
// live-rr every connection but the process's first is measured together with
// the one closed just before, which stays reachable from its drain timers for
// about three seconds, longer than a repetition.
func runE2E(w workload, p plan, seed int64, seconds float64) (e2eResult, error) {
	res := e2eResult{Workload: w.name(), Seed: seed, Metrics: map[string]summary{}, verdict: verdict{Correct: true}}
	rep := w.newRep(p.work, seed, liveHeap())
	warm, err := rep()
	if err != nil {
		return res, fmt.Errorf("warm-up repetition: %w", err)
	}
	res.count(warm)
	perMetric := map[string][]float64{}
	var walls, setups []float64
	retained := float64(warm.retained) / mib
	// Every unit generates the same inputs from the seed, so the median is
	// over repeated measurements of one piece of work. (Units on inputs of
	// their own made fleet-ab's median a rank among unlike populations, and
	// it jumped by a quarter between two runs of one seed.)
	setupUnit := func() error {
		t0 := time.Now()
		if err := w.setup(p.setup, seed); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	start := time.Now()
	for res.Reps < maxReps {
		r, err := rep()
		if err != nil {
			return res, fmt.Errorf("repetition %d: %w", res.Reps+1, err)
		}
		res.Reps++
		res.count(r)
		retained = math.Min(retained, float64(r.retained)/mib)
		for k, v := range r.values() {
			perMetric[k] = append(perMetric[k], v)
		}
		walls = append(walls, r.cost.wallS)
		if len(setups) < p.setupUnits {
			if err := setupUnit(); err != nil {
				return res, err
			}
		}
		elapsed := time.Since(start).Seconds()
		if elapsed > maxTimedS || (res.Reps >= p.minReps && elapsed+median(walls)/2 >= seconds) {
			break
		}
	}
	for len(setups) < p.setupUnits {
		if err := setupUnit(); err != nil {
			return res, err
		}
	}
	res.TimedS = time.Since(start).Seconds()
	for k, vs := range perMetric {
		res.Metrics[k] = summarize(vs)
	}
	res.Metrics["setup_s"] = summarize(setups)
	res.Metrics["retained_heap_MiB"] = summarize([]float64{retained})
	return res, nil
}

// layerResult is one workload's traced (per-layer) measurement.
type layerResult struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Values    map[string]float64    `json:"values"`
	Spans     map[string]spanTotals `json:"spans,omitempty"`
	Budget    []budgetRow           `json:"budget"`
	BudgetCPU float64               `json:"budget_cpu_s"`
	verdict

	rec *recorder
}

// spanTotals is layerTime in the units the report prints.
type spanTotals struct {
	Count  uint64  `json:"count"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share_of_traced_wall"`
}

func newLayerResult(name string, seed int64) *layerResult {
	lr := &layerResult{Workload: name, Seed: seed, Values: map[string]float64{}, verdict: verdict{Correct: true}}
	for _, m := range perLayer {
		lr.Values[m.Name] = 0
	}
	return lr
}

// useSpans takes the recorder's spans: their self times per name, as shares
// of the traced wall time. It returns the self times for the metrics.
func (lr *layerResult) useSpans(rec *recorder, tracedWallS float64) map[string]layerTime {
	lr.rec = rec
	st := rec.selfTimes()
	lr.Spans = map[string]spanTotals{}
	for name, lt := range st {
		lr.Spans[name] = spanTotals{Count: lt.count, SelfMS: float64(lt.selfN) / 1e6, Share: ratio(float64(lt.selfN)/1e9, tracedWallS)}
	}
	return st
}

func (lr *layerResult) merge(vs map[string]float64) {
	for k, v := range vs {
		lr.Values[k] = v
	}
}

// finish runs the probe suite and the budget.
func (lr *layerResult) finish(p plan, c budgetCounts, cpuS float64) {
	pv := runProbes(p)
	lr.merge(pv)
	lr.Budget, lr.Values["bench.unattributed_share"] = budget(c, pv, cpuS)
	lr.BudgetCPU = cpuS
}

// medianTimings are the demoted end-to-end timings over the untraced
// repetitions a traced run made.
func medianTimings(reps []repSample) map[string]float64 {
	out := map[string]float64{}
	for _, k := range timings {
		vs := make([]float64, len(reps))
		for i, r := range reps {
			vs[i] = r.values()[k]
		}
		out[k] = median(vs)
	}
	return out
}

// byteShares are the recovery-lane shares of the server's stream bytes.
func byteShares(stream, rtx, reinj uint64) map[string]float64 {
	total := float64(stream + rtx + reinj)
	return map[string]float64{
		"transport.reinject_byte_share": ratio(float64(reinj), total),
		"recovery.rtx_byte_share":       ratio(float64(rtx), total),
	}
}

// sessionSetupUS times core.NewSession alone on cfg (median of 21).
func sessionSetupUS(cfg core.SessionConfig) float64 {
	vals := make([]float64, 21)
	for i := range vals {
		t0 := time.Now()
		s := core.NewSession(cfg)
		vals[i] = float64(time.Since(t0)) / 1e3
		sink.n = s.Loop.Fired()
	}
	return median(vals)
}

// traced for the sim-bulk workloads: untraced core.Session runs as the
// reference, one run of the span-instrumented assembly that must reproduce
// it, one run of the assembly with the transport's obs tracer on.
func (w simBulk) traced(p plan, seed int64, _ float64, log io.Writer) (*layerResult, error) {
	sc := p.work
	lr := newLayerResult(w.wl, seed)
	cfg := w.sessionConfig(sc, seed)
	// The process's first session pays for growing the heap; the second is
	// the reference the overhead shares are taken against.
	base := liveHeap()
	var ref repSample
	var refOut simOutcome
	for i := 0; i < 2; i++ {
		var err error
		if ref, err = w.rep(sc, seed, base, &refOut); err != nil {
			return nil, err
		}
		lr.count(ref)
	}

	rec := newRecorder()
	a := assembleSim(cfg, rec, nil)
	t0 := time.Now()
	out, err := a.run()
	tracedWall := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	if err := checkSameProgram(out, refOut); err != nil {
		lr.fail(err.Error())
	}

	tr := obs.NewTrace("benchmark")
	withObs := assembleSim(cfg, nil, tr)
	t0 = time.Now()
	obsOut, err := withObs.run()
	obsWall := time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	if err := checkSameProgram(obsOut, refOut); err != nil {
		lr.fail("with Config.Tracer set: " + err.Error())
	}
	fmt.Fprintf(log, "  obs tracer on: %d events, %.3f s against %.3f s untraced\n", tr.EventCount(), obsWall, ref.cost.wallS)

	st := lr.useSpans(rec, tracedWall)
	c := a.counts
	pkts := float64(c.sentPkts[0] + c.sentPkts[1])
	recv := st[spanRecvCli].count + st[spanRecvSrv].count
	verifiedMiB := float64(ref.appBytes) / mib
	lr.merge(map[string]float64{
		"transport.recv_self_ns_per_pkt":     ratio(float64(st[spanRecvCli].selfN+st[spanRecvSrv].selfN), float64(recv)),
		"transport.ack_recv_self_ns_per_pkt": ratio(float64(st[spanRecvSrv].selfN), float64(st[spanRecvSrv].count)),
		"transport.recv_age_growth":          recvAgeGrowth(rec.snapshot()),
		"transport.timer_self_ns_per_pkt":    ratio(float64(st[spanTimer].selfN), pkts),
		"transport.pkts_per_MiB":             ratio(pkts, verifiedMiB),
		"transport.ack_pkt_share":            ratio(float64(c.sentPkts[0]), pkts),
		"transport.wire_efficiency":          ratio(float64(ref.appBytes), float64(out.server.SentBytes)),
		"transport.batch_fill_mean":          ratio(float64(c.batchPkts), float64(c.batches)),
		"transport.mean_datagram_B":          ratio(float64(c.sentBytes[1]), float64(c.sentPkts[1])),
		"transport.dup_recv_byte_share":      ratio(float64(out.client.DuplicateBytesRecv), float64(out.client.RecvBytes)),
		"qoe.enable_share":                   ratio(float64(out.card.QoEEnables), float64(out.card.QoEDecisions)),
		"netem.send_self_ns_per_pkt":         ratio(float64(st[spanSend].selfN), pkts),
		"netem.drop_share":                   ratio(float64(out.links.DroppedPkts), float64(out.links.SentPackets+out.links.DroppedPkts)),
		"netem.queue_peak_pkts":              float64(c.queuePeak),
		"sim.loop_self_ns_per_pkt":           ratio(float64(st[spanRun].selfN), pkts),
		"sim.events_per_pkt":                 ratio(float64(out.events), pkts),
		"sim.virt_s_per_wall_s":              ratio(ref.playedS, ref.cost.wallS),
		"core.session_setup_us":              sessionSetupUS(cfg),
		"abtest.completed_share":             ratio(float64(out.completed), float64(out.chunks)),
		"video.callback_self_ns_per_pkt":     ratio(float64(st[spanCallback].selfN), pkts),
		"obs.tracer_slowdown_share":          obsWall/ref.cost.wallS - 1,
		"bench.trace_overhead_share":         tracedWall/ref.cost.wallS - 1,
	})
	lr.merge(medianTimings([]repSample{ref}))
	lr.merge(byteShares(out.server.StreamBytesSent, out.server.RtxBytesSent, out.server.ReinjectedBytesSent))
	lr.merge(qoeValues(out.rcts, []time.Duration{out.metrics.FirstFrameLatency}, out.metrics.RebufferTime, 1))
	lr.finish(p, budgetCounts{
		dataPkts: c.sentPkts[1], ackPkts: c.sentPkts[0], events: out.events,
		appKiB: float64(ref.appBytes) / 1024, decisions: c.decisions, emulated: true,
	}, ref.cost.cpuS())
	return lr, nil
}

// recvAgeGrowth is the mean HandleDatagram self time over the last quarter of
// the session's datagrams divided by the mean over the first quarter: above 1
// means per-packet cost grows with connection age.
func recvAgeGrowth(spans []span) float64 {
	all := selfDurations(spans)
	var self []int64
	for i, s := range spans {
		if s.Name == spanRecvCli || s.Name == spanRecvSrv {
			self = append(self, all[i])
		}
	}
	q := len(self) / 4
	if q == 0 {
		return 0
	}
	sum := func(v []int64) (t float64) {
		for _, x := range v {
			t += float64(x)
		}
		return t
	}
	return ratio(sum(self[len(self)-q:]), sum(self[:q]))
}

// fleetTypicalSession is a session like the ones abtest draws (a few MiB
// over two modest constant-rate paths), for core.session_setup_us: the drawn
// sessions themselves are not reachable from outside abtest.
func fleetTypicalSession(seed int64) core.SessionConfig {
	return core.SessionConfig{
		Scheme:    core.SchemeXLINK,
		Paths:     transport.TwoPathConfig(20, 10, 30*time.Millisecond, 70*time.Millisecond),
		Video:     video.Video{ID: "v", Size: 3 << 20, BitrateBps: 2_500_000, FPS: 30, FirstFrameSize: 80 << 10},
		Requester: video.RequesterConfig{ChunkSize: 256 << 10, MaxConcurrent: 2, MaxBufferAhead: 2500 * time.Millisecond},
		Seed:      seed,
	}
}

// traced for fleet-ab: sessions run inside abtest, so no span can be placed
// around their layers. The traced run measures what is visible: RunParallel
// against the sequential Run (worker scaling, and that both produce the same
// result), and the counters abtest aggregates.
func (w fleetAB) traced(p plan, seed int64, _ float64, log io.Writer) (*layerResult, error) {
	sc := p.work
	lr := newLayerResult(wlFleet, seed)
	rec := newRecorder()
	lr.rec = rec
	sp := rec.begin("abtest.run_parallel", 0, -1)
	base := liveHeap()
	par, parOut := w.run(sc, seed, base, workers())
	rec.end(sp)
	lr.count(par)
	sp = rec.begin("abtest.run", 0, -1)
	seq, seqOut := w.run(sc, seed, base, 1)
	rec.end(sp)
	if seqOut.digest != parOut.digest {
		lr.fail("abtest.Run and abtest.RunParallel produced different results")
	}
	fmt.Fprintf(log, "  RunParallel(%d) %.3f s, Run %.3f s\n", workers(), par.cost.wallS, seq.cost.wallS)

	x := parOut.xlink
	lr.merge(map[string]float64{
		"transport.pkts_per_MiB":     ratio(float64(parOut.serverPkts), float64(parOut.streamBytes)/mib),
		"qoe.enable_share":           ratio(float64(counterValue(x.Registry, obs.MetricQoEEnables)), float64(counterValue(x.Registry, obs.MetricQoEDecisions))),
		"sim.virt_s_per_wall_s":      ratio(par.playedS, par.cost.wallS),
		"core.session_setup_us":      sessionSetupUS(fleetTypicalSession(seed)),
		"abtest.parallel_efficiency": ratio(seq.cost.wallS/par.cost.wallS, float64(workers())),
		"abtest.completed_share":     ratio(float64(parOut.completed), float64(parOut.ran)),
	})
	lr.merge(medianTimings([]repSample{par}))
	lr.merge(byteShares(x.StreamBytes, x.RtxBytes, x.ReinjBytes))
	lr.merge(fleetQoE(x))
	lr.finish(p, budgetCounts{
		dataPkts: parOut.serverPkts, appKiB: float64(parOut.streamBytes) / 1024,
		decisions: counterValue(x.Registry, obs.MetricQoEDecisions), emulated: true,
	}, par.cost.cpuS())
	return lr, nil
}

// traced for live-rr: untraced connections for most of the budget (they
// supply the latency percentiles, which need thousands of samples), then one
// connection with spans around the calls into the endpoint and its callbacks.
func (w *liveRR) traced(p plan, seed int64, budgetS float64, log io.Writer) (*layerResult, error) {
	sc := p.work
	lr := newLayerResult(wlLive, seed)
	in := newLiveInputs(seed)
	base := liveHeap()
	var lat liveLatencies
	var untraced []repSample
	var walls []float64
	var cpu cost       // summed over the untraced connections
	var writeS float64 // summed time blocked in Stream.Write + Close
	var last liveOutcome
	start := time.Now()
	for {
		o, err := w.session(in, sc, base, nil)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, o.sample(sc))
		lr.count(untraced[len(untraced)-1])
		lat.add(o)
		walls = append(walls, o.cost.wallS)
		cpu.userS += o.cost.userS
		cpu.sysS += o.cost.sysS
		cpu.ctxSw += o.cost.ctxSw
		writeS += o.tiny.writeS + o.chunk.writeS
		last = o
		// Leave room for the traced connection and the probes.
		if time.Since(start).Seconds()+2.5*median(walls) >= budgetS || len(walls) == maxReps {
			break
		}
	}
	reps := len(walls)
	requests := float64(len(lat.tiny) + len(lat.chunk))

	rec := newRecorder()
	tracedOut, err := w.session(in, sc, base, rec)
	if err != nil {
		return nil, err
	}
	lr.count(tracedOut.sample(sc))
	fmt.Fprintf(log, "  %d untraced connections (%d tiny, %d chunk latency samples), 1 traced\n", reps, len(lat.tiny), len(lat.chunk))

	st := lr.useSpans(rec, tracedOut.cost.wallS)
	srv, cli := last.server, last.client
	pkts := float64(srv.SentPackets + cli.SentPackets)
	verified := float64(sc.tinyRequests*tinyRespBytes + sc.chunkRequests*chunkRespBytes)
	lr.merge(lat.values())
	lr.merge(medianTimings(untraced))
	lr.merge(map[string]float64{
		"transport.pkts_per_MiB":        ratio(pkts, verified/mib),
		"transport.ack_pkt_share":       ratio(float64(cli.SentPackets), pkts),
		"transport.wire_efficiency":     ratio(verified, float64(srv.SentBytes)),
		"transport.batch_fill_mean":     last.batchMean,
		"transport.mean_datagram_B":     ratio(float64(srv.SentBytes), float64(srv.SentPackets)),
		"transport.dup_recv_byte_share": ratio(float64(cli.DuplicateBytesRecv), float64(cli.RecvBytes)),
		"video.callback_self_ns_per_pkt": ratio(float64(st["xlink.client_callback"].selfN+st["xlink.server_callback"].selfN),
			float64(tracedOut.server.SentPackets+tracedOut.client.SentPackets)),
		"xlink.write_call_us":        ratio(writeS*1e6, requests),
		"xlink.sys_cpu_share":        ratio(cpu.sysS, cpu.cpuS()),
		"xlink.ctx_switches_per_req": ratio(float64(cpu.ctxSw), requests),
		"bench.trace_overhead_share": tracedOut.cost.wallS/median(walls) - 1,
		"qoe.enable_share":           ratio(float64(last.card.QoEEnables), float64(last.card.QoEDecisions)),
	})
	shares := byteShares(srv.StreamBytesSent, srv.RtxBytesSent, srv.ReinjectedBytesSent)
	lr.merge(shares)
	lr.Values["xlink.rtx_byte_share"] = shares["recovery.rtx_byte_share"]
	lr.finish(p, budgetCounts{dataPkts: srv.SentPackets, ackPkts: cli.SentPackets, decisions: last.card.QoEDecisions},
		cpu.cpuS()/float64(reps))
	return lr, nil
}

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
