// Command benchmark is the repository's benchmark: four fixed-work workloads
// run through the public entry points (core.NewSession, abtest.RunParallel,
// xlink.Listen/Dial), three gated end-to-end metrics and four reported
// timings per workload measured with tracing off, and a separate traced run
// that gives the per-layer numbers and a cost budget reconciled against the
// end-to-end CPU figure. See README.md in this directory.
//
// All traffic is in-process emulation (sim, fleet) or host loopback (live):
// nothing here is a link-rate claim.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

const defaultSeed = 20210823

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	probes    bool
	selfcheck bool
	out       string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default: all, in sequence)")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed every generated input derives from")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "wall seconds one run measures for (the driver passes BENCHMARK.json's run_seconds)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run's per-layer metrics")
	fs.BoolVar(&o.probes, "probes", false, "run only the inner-layer probe suite and print it")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the timed part twice and compare the two sets against the bounds")
	fs.StringVar(&o.out, "out", "", "directory to write result JSON (and, traced, the span CSVs) into")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (o.trace != 0 && o.trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: unexpected argument, -trace not 0 or 1, or -seconds not positive")
		return 2
	}
	names := workloadNames
	if o.workload != "" {
		if _, ok := workloadByName(o.workload); !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{o.workload}
	}
	printEnvironment(stdout)
	if o.probes {
		pv := runProbes(fullPlan)
		for _, k := range sortedKeys(pv) {
			fmt.Fprintf(stdout, "  %-40s %12.2f %s\n", k, pv[k], unitOf(k))
		}
		return 0
	}

	code := 0
	var record runRecord
	record.Env = environment()
	for _, name := range names {
		w, _ := workloadByName(name)
		var err error
		var ok bool
		switch {
		case o.selfcheck:
			ok, err = selfcheck(w, o, stdout)
		case o.trace == 1:
			var lr *layerResult
			lr, err = w.traced(fullPlan, o.seed, o.seconds, stdout)
			if err == nil {
				printLayers(stdout, lr)
				record.Layers = append(record.Layers, lr)
				ok = lr.ok()
				if o.out != "" {
					err = writeSpans(o, lr)
				}
				if err == nil {
					err = printLine(stdout, lr.verdict, perLayer, func(n string) float64 { return lr.Values[n] })
				}
			}
		default:
			var res e2eResult
			res, err = runE2E(w, fullPlan, o.seed, o.seconds)
			if err == nil {
				printE2E(stdout, res)
				record.EndToEnd = append(record.EndToEnd, res)
				ok = res.ok()
				err = printLine(stdout, res.verdict, endToEnd, func(n string) float64 { return res.Metrics[n].Median })
			}
		}
		if err != nil {
			// No result line: a run that could not measure must not look like one that did.
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		if !ok {
			code = 1
		}
	}
	if o.out != "" && !o.selfcheck {
		if err := writeRecord(o, record); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

// envInfo describes the box and build the numbers came from.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
	LoadAvg1   string `json:"loadavg_1min"`
	Traffic    string `json:"traffic"`
}

func environment() envInfo {
	e := envInfo{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: "unknown", LoadAvg1: "unknown",
		Traffic: "in-process emulation (sim-bulk-*, fleet-ab) or host loopback (live-rr); no real link was crossed",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.LoadAvg1 = f[0]
		}
	}
	return e
}

func printEnvironment(w io.Writer) {
	e := environment()
	fmt.Fprintf(w, "xlink benchmark: %s GOMAXPROCS=%d nproc=%d commit=%s loadavg1=%s\n", e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.Commit, e.LoadAvg1)
	fmt.Fprintf(w, "traffic: %s\n", e.Traffic)
	fmt.Fprintf(w, "load: closed loop, one caller per connection, at most %d worker goroutines\n", workers())
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

func printE2E(w io.Writer, r e2eResult) {
	fmt.Fprintf(w, "\n%s  seed %d: a warm-up, then %d repetitions and the set-up units in %.1f s, tracing off\n", r.Workload, r.Seed, r.Reps, r.TimedS)
	row := func(name, note string) {
		s := r.Metrics[name]
		fmt.Fprintf(w, "  %-20s %14.4f %-7s %s  q1 %.4f  q3 %.4f  n=%d\n", name, s.Median, unitOf(name), note, s.Q1, s.Q3, s.N)
	}
	for _, m := range endToEnd {
		row(m.Name, fmt.Sprintf("(gated at %2.0f %%)", bounds[m.Name]*100))
	}
	for _, name := range timings {
		if r.Metrics[name].Median != 0 { // 0: not defined on this workload
			row(name, "(not gated)   ")
		}
	}
	printVerdict(w, r.verdict)
}

func printVerdict(w io.Writer, v verdict) {
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", v.Attempted, v.Failed)
	for _, b := range v.Broken {
		fmt.Fprintf(w, "  OUTPUT CHECK FAILED: %s\n", b)
	}
}

func printLayers(w io.Writer, lr *layerResult) {
	fmt.Fprintf(w, "\n%s  seed %d: traced run\n", lr.Workload, lr.Seed)
	if len(lr.Spans) > 0 {
		fmt.Fprintln(w, "  span self times (duration minus child spans):")
		for _, name := range sortedKeys(lr.Spans) {
			s := lr.Spans[name]
			fmt.Fprintf(w, "    %-24s %9d spans %10.1f ms self  %6.2f%% of traced wall\n", name, s.Count, s.SelfMS, s.Share*100)
		}
	}
	printBudget(w, lr.Budget, lr.BudgetCPU)
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", m.Name, lr.Values[m.Name], m.Unit)
	}
	printVerdict(w, lr.verdict)
}

// resultLine is the run contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printLine(w io.Writer, v verdict, defs []metricDef, value func(string) float64) error {
	line := resultLine{Correct: v.Correct, Attempted: v.Attempted, Failed: v.Failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		line.Metrics[m.Name] = metricValue{Value: value(m.Name), Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runRecord is the JSON a run leaves in -out.
type runRecord struct {
	Env      envInfo        `json:"environment"`
	EndToEnd []e2eResult    `json:"end_to_end,omitempty"`
	Layers   []*layerResult `json:"per_layer,omitempty"`
}

func writeRecord(o options, rec runRecord) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("seed-%d.trace-%d.json", o.seed, o.trace)
	return os.WriteFile(filepath.Join(o.out, name), append(b, '\n'), 0o644)
}

func writeSpans(o options, lr *layerResult) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	return lr.rec.writeCSV(filepath.Join(o.out, fmt.Sprintf("spans.%s.seed-%d.csv", lr.Workload, o.seed)))
}
