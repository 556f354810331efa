package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/abtest"
	"repro/internal/core"
	"repro/internal/stats"
)

// Fig11Table3 reproduces the headline A/B test (Sec 7.2): day-by-day
// request completion time of XLINK vs SP (Fig 11) and the rebuffer-rate
// reduction (Table 3).
func Fig11Table3(scale Scale, seed int64) Report {
	arms := []abtest.Arm{
		{Name: "SP", Scheme: core.SchemeSinglePath},
		{Name: "XLINK", Scheme: core.SchemeXLINK},
	}
	rct := stats.Table{Header: []string{"Day", "SP-p50", "XL-p50", "SP-p95", "XL-p95", "SP-p99", "XL-p99"}}
	reb := stats.Table{Header: []string{"Day", "SP rate", "XLINK rate", "reduction (%)"}}
	var p50s, p95s, p99s, rebs []float64
	for day := 1; day <= scale.Days; day++ {
		res := abtest.RunParallel(abtest.Population{Day: day, Sessions: scale.SessionsPerDay, Seed: seed}, arms, runtime.NumCPU())
		sp, xl := res["SP"], res["XLINK"]
		ssp, sxl := sp.RCTSummary(), xl.RCTSummary()
		rct.AddRow(fmt.Sprintf("%d", day),
			fmt.Sprintf("%.3f", ssp.P50), fmt.Sprintf("%.3f", sxl.P50),
			fmt.Sprintf("%.3f", ssp.P95), fmt.Sprintf("%.3f", sxl.P95),
			fmt.Sprintf("%.3f", ssp.P99), fmt.Sprintf("%.3f", sxl.P99))
		improv := abtest.Improvement(sp, xl, func(r *abtest.ArmResult) float64 { return r.RebufferRate() })
		reb.AddRow(fmt.Sprintf("%d", day),
			fmt.Sprintf("%.4f", sp.RebufferRate()), fmt.Sprintf("%.4f", xl.RebufferRate()),
			fmt.Sprintf("%+.1f", improv))
		p50s = append(p50s, stats.Improvement(ssp.P50, sxl.P50))
		p95s = append(p95s, stats.Improvement(ssp.P95, sxl.P95))
		p99s = append(p99s, stats.Improvement(ssp.P99, sxl.P99))
		rebs = append(rebs, improv)
	}
	var b strings.Builder
	b.WriteString("Request completion time, XLINK vs SP (Fig 11):\n")
	b.WriteString(rct.String())
	b.WriteString("\nRebuffer-rate reduction, XLINK vs SP (Table 3):\n")
	b.WriteString(reb.String())
	fmt.Fprintf(&b, "\nday-to-day improvement ranges: p50 %.1f..%.1f%%, p95 %.1f..%.1f%%, p99 %.1f..%.1f%%\n",
		stats.Min(p50s), stats.Max(p50s), stats.Min(p95s), stats.Max(p95s), stats.Min(p99s), stats.Max(p99s))
	fmt.Fprintf(&b, "(paper: p50 2.3-8.9%%, p95 9.4-34%%, p99 19-50%%; rebuffer 23.8-67.7%%)\n")
	return Report{
		ID:    "fig11-table3",
		Title: "Large-scale A/B: XLINK vs SP (Sec 7.2)",
		Body:  b.String(),
		KeyMetrics: map[string]float64{
			"p50_improvement_mean":      stats.Mean(p50s),
			"p95_improvement_mean":      stats.Mean(p95s),
			"p99_improvement_mean":      stats.Mean(p99s),
			"rebuffer_improvement_mean": stats.Mean(rebs),
		},
	}
}

// Fig12FirstFrame reproduces the first-video-frame latency study: XLINK
// with and without first-video-frame acceleration vs SP, improvement per
// percentile (Fig 12).
func Fig12FirstFrame(scale Scale, seed int64) Report {
	arms := []abtest.Arm{
		{Name: "SP", Scheme: core.SchemeSinglePath},
		{Name: "no-accel", Scheme: core.SchemeXLINK, Options: core.Options{DisableFrameAcceleration: true}},
		{Name: "accel", Scheme: core.SchemeXLINK},
	}
	// Pool several days for a stable tail.
	agg := map[string][]float64{}
	for day := 1; day <= scale.Days; day++ {
		res := abtest.RunParallel(abtest.Population{Day: day, Sessions: scale.SessionsPerDay, Seed: seed + 1000}, arms, runtime.NumCPU())
		for _, arm := range arms {
			agg[arm.Name] = append(agg[arm.Name], res[arm.Name].FirstFrames...)
		}
	}
	percentiles := []float64{50, 75, 90, 95, 99}
	tab := stats.Table{Header: []string{"pct", "SP (s)", "w/o accel improv", "w/ accel improv"}}
	metrics := map[string]float64{}
	var b strings.Builder
	for _, p := range percentiles {
		sp := stats.Percentile(agg["SP"], p)
		noAcc := stats.Improvement(sp, stats.Percentile(agg["no-accel"], p))
		acc := stats.Improvement(sp, stats.Percentile(agg["accel"], p))
		tab.AddRow(fmt.Sprintf("p%.0f", p), fmt.Sprintf("%.3f", sp), pct(noAcc), pct(acc))
		metrics[fmt.Sprintf("accel_improvement_p%.0f", p)] = acc
		metrics[fmt.Sprintf("noaccel_improvement_p%.0f", p)] = noAcc
	}
	b.WriteString("First-video-frame latency improvement over SP (Fig 12):\n")
	b.WriteString(tab.String())
	b.WriteString("\n(paper: w/o acceleration degrades toward the tail — p99 14% worse than SP;\n")
	b.WriteString(" with acceleration p99 improves >32%, growing toward the tail)\n")
	return Report{
		ID:         "fig12",
		Title:      "First-video-frame acceleration (Fig 12)",
		Body:       b.String(),
		KeyMetrics: metrics,
	}
}
