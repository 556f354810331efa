package main

import (
	"fmt"
	"io"
	"math"
	"time"
)

// selfcheck runs the end-to-end measurement twice back to back and holds the
// two sets of medians to the bounds: same code must agree with itself within
// what the benchmark calls a regression. It reports false if any gated
// metric's two medians differ by more than its bound; the timings are
// printed beside them without a verdict.
func selfcheck(w workload, o options, out io.Writer) (bool, error) {
	a, err := runE2E(w, fullPlan, o.seed, o.seconds)
	if err != nil {
		return false, err
	}
	// A closed live endpoint stays reachable from its drain timers for about
	// three seconds; let set A's connections go before set B takes its heap
	// baseline.
	time.Sleep(4 * time.Second)
	b, err := runE2E(w, fullPlan, o.seed, o.seconds)
	if err != nil {
		return false, err
	}
	ok := a.ok() && b.ok()
	fmt.Fprintf(out, "\n%s  seed %d: selfcheck, %d + %d repetitions\n", a.Workload, a.Seed, a.Reps, b.Reps)
	fmt.Fprintf(out, "  %-20s %14s %14s %9s %7s\n", "metric", "set A median", "set B median", "diff", "bound")
	for _, m := range endToEnd {
		ma, mb := a.Metrics[m.Name].Median, b.Metrics[m.Name].Median
		diff := math.Abs(mb-ma) / math.Abs(ma)
		verdict := ""
		if diff > bounds[m.Name] {
			verdict = "  EXCEEDS BOUND"
			ok = false
		}
		fmt.Fprintf(out, "  %-20s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", m.Name, ma, mb, diff*100, bounds[m.Name]*100, verdict)
	}
	for _, name := range timings {
		if ma, mb := a.Metrics[name].Median, b.Metrics[name].Median; ma != 0 {
			fmt.Fprintf(out, "  %-20s %14.4f %14.4f %8.2f%%  not gated\n", name, ma, mb, math.Abs(mb-ma)/math.Abs(ma)*100)
		}
	}
	fmt.Fprintf(out, "  operations: %d attempted, %d failed\n", a.Attempted+b.Attempted, a.Failed+b.Failed)
	return ok, nil
}
