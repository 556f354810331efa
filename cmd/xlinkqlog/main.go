// Command xlinkqlog generates and summarizes XLINK's qlog-style NDJSON
// traces (internal/obs). It closes the observability loop of DESIGN.md §9:
// any chaos-corpus scenario can be replayed with a tracer attached, and the
// resulting trace rendered as per-path timelines, an Alg. 1 re-injection
// decision table and a loss/rebuffer correlation — the views the paper's
// debugging story (Sec 6) needs.
//
// Usage:
//
//	xlinkqlog -list                    list the chaos corpus scenarios
//	xlinkqlog -run <scenario> [-o f]   replay a scenario with tracing and
//	                                   write the NDJSON trace (default stdout)
//	xlinkqlog [-metrics] <trace.ndjson> summarize a trace file
//	xlinkqlog -run <scenario> -summary replay and summarize in one step
//	xlinkqlog -fleet <t1> [t2 ...]     aggregate conn:scorecard rollups
//	                                   across many trace files (DESIGN.md §14)
//
// Exit status: 0 on success, 1 on unreadable or malformed input, 2 on
// usage errors (unknown flags or stray arguments).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xlinkqlog", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list corpus scenarios and exit")
	runName := fs.String("run", "", "replay this corpus scenario with a tracer attached")
	out := fs.String("o", "", "write the generated trace to this file (default stdout)")
	summary := fs.Bool("summary", false, "with -run: summarize instead of dumping the trace")
	metrics := fs.Bool("metrics", false, "also dump the metrics registry exposition")
	fleet := fs.Bool("fleet", false, "aggregate conn:scorecard events across the given trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "xlinkqlog:", err)
		return 1
	}

	switch {
	case *list:
		for _, sc := range chaos.Corpus() {
			fmt.Fprintf(stdout, "%-18s seed=%-4d script=%s\n", sc.Name, sc.Seed, sc.Script.Name)
		}
	case *runName != "":
		sc, ok := chaos.ScenarioByName(*runName)
		if !ok {
			return fail(fmt.Errorf("unknown scenario %q (use -list)", *runName))
		}
		sc.Tracer = obs.NewTrace(sc.Name)
		res := chaos.Run(sc)
		if *summary {
			evs, err := obs.ParseBytes(sc.Tracer.Bytes())
			if err != nil {
				return fail(err)
			}
			summarize(stdout, sc.Name, evs)
		} else if *out != "" {
			if err := os.WriteFile(*out, sc.Tracer.Bytes(), 0o644); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stderr, "%s: %d events, completed=%v, %d bytes -> %s\n",
				sc.Name, sc.Tracer.EventCount(), res.Completed, len(sc.Tracer.Bytes()), *out)
		} else {
			stdout.Write(sc.Tracer.Bytes())
		}
		if *metrics {
			fmt.Fprintln(stdout, "== metrics ==")
			sc.Tracer.Registry().Dump(stdout)
		}
	case *fleet:
		if fs.NArg() == 0 {
			fmt.Fprintln(stderr, "xlinkqlog: -fleet needs at least one trace file")
			fs.Usage()
			return 2
		}
		if err := fleetSummarize(stdout, fs.Args(), *metrics); err != nil {
			return fail(err)
		}
	case fs.NArg() == 1:
		evs, err := parseTraceFile(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		summarize(stdout, fs.Arg(0), evs)
	default:
		if fs.NArg() > 1 {
			fmt.Fprintf(stderr, "xlinkqlog: unexpected arguments %q (use -fleet to aggregate several traces)\n", fs.Args())
		}
		fs.Usage()
		return 2
	}
	return 0
}

// parseTraceFile reads and parses one NDJSON trace file.
func parseTraceFile(path string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	evs, err := obs.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return evs, nil
}

// fleetSummarize aggregates the conn:scorecard rollups of many trace files
// into the fleet view: session counts, completion rate, RCT and rebuffer
// distributions, recovery-lane byte attribution, and per-path totals. Every
// card is also merged into a registry so -metrics yields the same
// exposition a production aggregation point would serve.
func fleetSummarize(w io.Writer, files []string, dumpMetrics bool) error {
	reg := obs.NewRegistry()
	var cards []obs.Scorecard
	traced := 0
	for _, path := range files {
		evs, err := parseTraceFile(path)
		if err != nil {
			return err
		}
		n := 0
		for _, e := range evs {
			if c, ok := obs.ScorecardFromEvent(e); ok {
				cards = append(cards, c)
				reg.MergeScorecard(&c)
				n++
			}
		}
		if n > 0 {
			traced++
		}
	}
	fmt.Fprintf(w, "== fleet rollup: %d sessions from %d of %d traces ==\n",
		len(cards), traced, len(files))
	if len(cards) == 0 {
		fmt.Fprintln(w, "  (no conn:scorecard events; generate traces with -run or a live Tracer)")
		return nil
	}

	var completed int
	var rcts []float64
	var rebufTime time.Duration
	var rebufCount, qoeDec, qoeEn, qoeTr uint64
	var stream, rtx, reinj, fec uint64
	var sentPkts, lostPkts uint64
	for _, c := range cards {
		if c.Completed {
			completed++
			rcts = append(rcts, c.RCT.Seconds())
		}
		rebufTime += c.RebufferTime
		rebufCount += c.RebufferCount
		qoeDec += c.QoEDecisions
		qoeEn += c.QoEEnables
		qoeTr += c.QoETransitions
		stream += c.StreamBytes
		rtx += c.RtxBytes
		reinj += c.ReinjBytes
		fec += c.FECRecoveredBytes
		for i := 0; i < c.NumPaths; i++ {
			sentPkts += c.Paths[i].SentPackets
			lostPkts += c.Paths[i].LostPackets
		}
	}
	fmt.Fprintf(w, "  completed:  %d/%d (%.1f%%)\n",
		completed, len(cards), 100*float64(completed)/float64(len(cards)))
	if len(rcts) > 0 {
		fmt.Fprintf(w, "  rct (s):    %s\n", stats.Summarize(rcts))
	}
	fmt.Fprintf(w, "  rebuffer:   %v total across %d stalls\n", rebufTime, rebufCount)
	fmt.Fprintf(w, "  qoe:        %d decisions, %d enables, %d transitions\n", qoeDec, qoeEn, qoeTr)
	total := stream + rtx + reinj
	fmt.Fprintf(w, "  lane bytes: stream=%d rtx=%d reinjected=%d fec_recovered=%d\n",
		stream, rtx, reinj, fec)
	if total > 0 {
		fmt.Fprintf(w, "  redundancy: %.2f%% of sent stream bytes were re-injected\n",
			100*float64(reinj)/float64(total))
	}
	if sentPkts > 0 {
		fmt.Fprintf(w, "  paths:      %d packets sent, %d lost (%.3f%%)\n",
			sentPkts, lostPkts, 100*float64(lostPkts)/float64(sentPkts))
	}
	if dumpMetrics {
		fmt.Fprintln(w, "== metrics ==")
		reg.Dump(w)
	}
	return nil
}

// summarize renders the human views of one trace.
func summarize(w io.Writer, title string, evs []obs.Event) {
	fmt.Fprintf(w, "trace %s: %d events\n\n", title, len(evs))
	eventTable(w, evs)
	pathTimelines(w, evs)
	decisionTable(w, evs)
	fecTable(w, evs)
	batchTable(w, evs)
	lossRebufferCorrelation(w, evs)
}

// batchTable summarizes the batched packet I/O plane (DESIGN.md §16): how
// many SendBatch flushes each path saw and how full they ran.
func batchTable(w io.Writer, evs []obs.Event) {
	fmt.Fprintln(w, "== batched i/o ==")
	type bkey struct {
		origin string
		path   uint64
	}
	type btally struct {
		flushes, packets, max int
	}
	flushes := map[bkey]*btally{}
	for _, e := range evs {
		if e.Name != obs.EvBatchFlush {
			continue
		}
		k := bkey{e.Origin, e.U64("path")}
		t := flushes[k]
		if t == nil {
			t = &btally{}
			flushes[k] = t
		}
		n := int(e.I64("packets"))
		t.flushes++
		t.packets += n
		if n > t.max {
			t.max = n
		}
	}
	if len(flushes) == 0 {
		fmt.Fprintln(w, "  (no batch events; sender ran unbatched)")
		fmt.Fprintln(w)
		return
	}
	bkeys := make([]bkey, 0, len(flushes))
	for k := range flushes {
		bkeys = append(bkeys, k)
	}
	sort.Slice(bkeys, func(i, j int) bool {
		if bkeys[i].origin != bkeys[j].origin {
			return bkeys[i].origin < bkeys[j].origin
		}
		return bkeys[i].path < bkeys[j].path
	})
	for _, k := range bkeys {
		t := flushes[k]
		fmt.Fprintf(w, "  %-8s path %d: flushes=%d packets=%d avg_batch=%.2f max_batch=%d\n",
			k.origin, k.path, t.flushes, t.packets, float64(t.packets)/float64(t.flushes), t.max)
	}
	fmt.Fprintln(w)
}

// eventTable prints per-(origin, name) event counts.
func eventTable(w io.Writer, evs []obs.Event) {
	type key struct{ origin, name string }
	counts := map[key]int{}
	for _, e := range evs {
		counts[key{e.Origin, string(e.Name)}]++
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].origin != keys[j].origin {
			return keys[i].origin < keys[j].origin
		}
		return keys[i].name < keys[j].name
	})
	fmt.Fprintln(w, "== event counts ==")
	for _, k := range keys {
		fmt.Fprintf(w, "  %-8s %-28s %6d\n", k.origin, k.name, counts[k])
	}
	fmt.Fprintln(w)
}

// pathTimelines prints, per origin and path, the lifecycle transitions in
// time order alongside traffic totals.
func pathTimelines(w io.Writer, evs []obs.Event) {
	fmt.Fprintln(w, "== path timelines ==")
	type pkey struct {
		origin string
		path   uint64
	}
	type tally struct {
		sent, lost, reinj int
		sentBytes         uint64
		lines             []string
	}
	tallies := map[pkey]*tally{}
	get := func(e obs.Event) *tally {
		k := pkey{e.Origin, e.U64("path")}
		tl := tallies[k]
		if tl == nil {
			tl = &tally{}
			tallies[k] = tl
		}
		return tl
	}
	for _, e := range evs {
		switch e.Name {
		case obs.EvPathAdded:
			get(e).lines = append(get(e).lines, fmt.Sprintf("%12v  added (net=%d tech=%s)", e.Time, e.I64("net"), e.Str("tech")))
		case obs.EvPathValidated:
			get(e).lines = append(get(e).lines, fmt.Sprintf("%12v  validated", e.Time))
		case obs.EvPathState:
			get(e).lines = append(get(e).lines, fmt.Sprintf("%12v  -> %s (%s)", e.Time, e.Str("state"), e.Str("reason")))
		case obs.EvPathAbandoned:
			get(e).lines = append(get(e).lines, fmt.Sprintf("%12v  abandoned (%s)", e.Time, e.Str("reason")))
		case obs.EvPacketSent:
			t := get(e)
			t.sent++
			t.sentBytes += e.U64("bytes")
		case obs.EvPacketLost:
			get(e).lost++
		case obs.EvReinjectSend:
			get(e).reinj++
		}
	}
	keys := make([]pkey, 0, len(tallies))
	for k := range tallies {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].origin != keys[j].origin {
			return keys[i].origin < keys[j].origin
		}
		return keys[i].path < keys[j].path
	})
	for _, k := range keys {
		tl := tallies[k]
		fmt.Fprintf(w, "  %s path %d: sent=%d (%d bytes) lost=%d reinjected=%d\n",
			k.origin, k.path, tl.sent, tl.sentBytes, tl.lost, tl.reinj)
		for _, l := range tl.lines {
			fmt.Fprintf(w, "    %s\n", l)
		}
	}
	fmt.Fprintln(w)
}

// decisionTable prints the Alg. 1 evaluations: Δt against both thresholds
// and the verdict, collapsing runs of identical verdicts to transitions.
func decisionTable(w io.Writer, evs []obs.Event) {
	fmt.Fprintln(w, "== qoe re-injection decisions (Alg. 1) ==")
	var total, enables int
	lastVerdict := ""
	for _, e := range evs {
		if e.Name != obs.EvQoEDecision {
			continue
		}
		total++
		verdict := "off"
		if e.Bool("enable") {
			verdict = "ON"
			enables++
		}
		if verdict != lastVerdict {
			fmt.Fprintf(w, "  %12v  dt=%-12v tth1=%-8v tth2=%-8v max_deliver=%-12v -> %s\n",
				e.Time, e.Dur("dt"), e.Dur("tth1"), e.Dur("tth2"), e.Dur("max_deliver"), verdict)
			lastVerdict = verdict
		}
	}
	if total == 0 {
		fmt.Fprintln(w, "  (none)")
	} else {
		fmt.Fprintf(w, "  %d decisions, %d enabled (%.1f%%); transitions shown above\n",
			total, enables, 100*float64(enables)/float64(total))
	}
	fmt.Fprintln(w)
}

// fecTable summarizes the FEC recovery lane (DESIGN.md §13): how much
// redundancy each origin paid, what the decoder got back for it
// (recovered-by-FEC counts and bytes), where it gave up, and the
// redundancy controller's protect rate.
func fecTable(w io.Writer, evs []obs.Event) {
	fmt.Fprintln(w, "== fec recovery lane ==")
	type tally struct {
		windows, repairsSent, repairBytesSent int
		repairsRecv, repairBytesRecv          int
		recovered                             int
		recoveredBytes                        uint64
		giveUps                               map[string]int
		decisions, protects, repairsPlanned   int
	}
	tallies := map[string]*tally{}
	get := func(origin string) *tally {
		tl := tallies[origin]
		if tl == nil {
			tl = &tally{giveUps: map[string]int{}}
			tallies[origin] = tl
		}
		return tl
	}
	for _, e := range evs {
		switch e.Name {
		case obs.EvFECSymbolSent:
			t := get(e.Origin)
			if e.I64("index") < 0 {
				t.windows++
			} else {
				t.repairsSent++
				t.repairBytesSent += int(e.I64("bytes"))
			}
		case obs.EvFECSymbolReceived:
			t := get(e.Origin)
			t.repairsRecv++
			t.repairBytesRecv += int(e.I64("bytes"))
		case obs.EvFECRecovered:
			t := get(e.Origin)
			t.recovered++
			t.recoveredBytes += e.U64("bytes")
		case obs.EvFECGiveUp:
			get(e.Origin).giveUps[e.Str("reason")]++
		case obs.EvFECDecision:
			t := get(e.Origin)
			t.decisions++
			if e.Bool("protect") {
				t.protects++
				t.repairsPlanned += int(e.I64("repairs"))
			}
		}
	}
	if len(tallies) == 0 {
		fmt.Fprintln(w, "  (fec lane not negotiated)")
		fmt.Fprintln(w)
		return
	}
	origins := make([]string, 0, len(tallies))
	for o := range tallies {
		origins = append(origins, o)
	}
	sort.Strings(origins)
	for _, o := range origins {
		tl := tallies[o]
		fmt.Fprintf(w, "  %-8s windows=%d repairs_sent=%d (%d bytes) repairs_recv=%d (%d bytes)\n",
			o, tl.windows, tl.repairsSent, tl.repairBytesSent, tl.repairsRecv, tl.repairBytesRecv)
		fmt.Fprintf(w, "           recovered_by_fec=%d (%d bytes)\n", tl.recovered, tl.recoveredBytes)
		if len(tl.giveUps) > 0 {
			reasons := make([]string, 0, len(tl.giveUps))
			for r := range tl.giveUps {
				reasons = append(reasons, r)
			}
			sort.Strings(reasons)
			for _, r := range reasons {
				fmt.Fprintf(w, "           give_up[%s]=%d\n", r, tl.giveUps[r])
			}
		}
		if tl.decisions > 0 {
			fmt.Fprintf(w, "           controller: %d decisions, %d protected (%.1f%%), %d repairs planned\n",
				tl.decisions, tl.protects, 100*float64(tl.protects)/float64(tl.decisions), tl.repairsPlanned)
		}
	}
	fmt.Fprintln(w)
}

// lossRebufferCorrelation lines up faults, packet losses and player stalls
// on one timeline — the paper's core observability question ("did this
// network event cost the viewer anything?").
func lossRebufferCorrelation(w io.Writer, evs []obs.Event) {
	fmt.Fprintln(w, "== loss / rebuffer correlation ==")
	const bucket = 250 * time.Millisecond
	losses := map[time.Duration]int{}
	var marks []string
	for _, e := range evs {
		switch e.Name {
		case obs.EvPacketLost:
			losses[e.Time/bucket*bucket]++
		case obs.EvFaultInjected:
			marks = append(marks, fmt.Sprintf("%12v  fault %-5s %s", e.Time, e.Str("phase"), e.Str("op")))
		case obs.EvVideoRebufferStart:
			marks = append(marks, fmt.Sprintf("%12v  REBUFFER start (#%d)", e.Time, e.I64("count")))
		case obs.EvVideoRebufferEnd:
			marks = append(marks, fmt.Sprintf("%12v  rebuffer end (stalled %v)", e.Time, e.Dur("stall")))
		case obs.EvVideoPlaybackStart:
			marks = append(marks, fmt.Sprintf("%12v  playback started", e.Time))
		case obs.EvVideoFinished:
			marks = append(marks, fmt.Sprintf("%12v  playback finished", e.Time))
		case obs.EvConnState:
			marks = append(marks, fmt.Sprintf("%12v  conn %s: %s -> %s", e.Time, e.Origin, e.Str("old"), e.Str("new")))
		}
	}
	times := make([]time.Duration, 0, len(losses))
	for t := range losses {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for _, t := range times {
		marks = append(marks, fmt.Sprintf("%12v  %d packets lost in [%v, %v)", t, losses[t], t, t+bucket))
	}
	sort.Slice(marks, func(i, j int) bool {
		return parseMarkTime(marks[i]) < parseMarkTime(marks[j])
	})
	if len(marks) == 0 {
		fmt.Fprintln(w, "  (no losses, faults or stalls)")
	}
	for _, m := range marks {
		fmt.Fprintf(w, "  %s\n", m)
	}
}

// parseMarkTime recovers the leading duration of a timeline mark for the
// final merge sort (marks are built per category, then interleaved).
func parseMarkTime(mark string) time.Duration {
	s := strings.TrimSpace(mark)
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0
	}
	return d
}
