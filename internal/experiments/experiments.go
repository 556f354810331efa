// Package experiments regenerates every table and figure of the paper's
// evaluation from the emulated system: each exported function runs one
// experiment and returns a printable report. cmd/xlink-bench exposes them
// as subcommands and bench_test.go wraps them as benchmarks.
//
// Absolute numbers come from an emulated substrate, not the authors'
// production testbed; what is expected to reproduce is the shape — who
// wins, by roughly what factor, and where behaviour crosses over. See
// EXPERIMENTS.md for paper-vs-measured values.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Scale trades experiment fidelity for runtime.
type Scale struct {
	// SessionsPerDay is the A/B population per day.
	SessionsPerDay int
	// Days is the number of emulated days for day-by-day tables.
	Days int
	// Repetitions is the per-point repeat count for controlled runs.
	Repetitions int
}

// FullScale approximates the evaluation-section settings at laptop scale.
func FullScale() Scale { return Scale{SessionsPerDay: 20, Days: 7, Repetitions: 5} }

// QuickScale keeps every experiment under a few seconds for benchmarks.
func QuickScale() Scale { return Scale{SessionsPerDay: 8, Days: 3, Repetitions: 2} }

// Report is a named, printable experiment result.
type Report struct {
	ID    string
	Title string
	Body  string
	// KeyMetrics are the headline numbers for EXPERIMENTS.md and
	// benchmark metric reporting.
	KeyMetrics map[string]float64
}

// String renders the report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	b.WriteString(r.Body)
	if len(r.KeyMetrics) > 0 {
		b.WriteString("key metrics:\n")
		for _, k := range sortedKeys(r.KeyMetrics) {
			fmt.Fprintf(&b, "  %-40s %10.4f\n", k, r.KeyMetrics[k])
		}
	}
	return b.String()
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// pct formats a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
