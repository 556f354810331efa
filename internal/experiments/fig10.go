package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/abtest"
	"repro/internal/core"
	"repro/internal/qoe"
	"repro/internal/stats"
)

// thresholdSetting names one (X, Y) percentile pair of Sec 7.1's sweep.
type thresholdSetting struct {
	name string
	x, y float64
	off  bool // re-injection disabled entirely
}

// fig10Settings is the sweep of Fig 10 / Table 2.
var fig10Settings = []thresholdSetting{
	{name: "re-inj. off", off: true},
	{name: "95-80", x: 95, y: 80},
	{name: "90-80", x: 90, y: 80},
	{name: "90-60", x: 90, y: 60},
	{name: "60-50", x: 60, y: 50},
	{name: "60-1", x: 60, y: 1},
	{name: "1-1", x: 1, y: 1}, // effectively no QoE control
}

// Fig10Table2 reproduces the double-threshold study (Sec 7.1): buffer
// occupancy improvement over SP and traffic cost per threshold setting,
// plus Table 2's reduction of <50 ms buffer levels.
//
// Method, as in the paper: first measure the play-time-left distribution
// with control off (re-injection unconditionally on), pick thresholds at
// its percentiles, then re-run the fleet with each setting.
func Fig10Table2(scale Scale, seed int64) Report {
	// Step 1: calibration run with re-injection always on (no QoE gate).
	calArms := []abtest.Arm{{Name: "cal", Scheme: core.SchemeReinjNoQoE}}
	cal := abtest.RunParallel(abtest.Population{Day: 1, Sessions: scale.SessionsPerDay, Seed: seed}, calArms, runtime.NumCPU())["cal"]
	samples := make([]time.Duration, len(cal.BufferLevels))
	for i, s := range cal.BufferLevels {
		samples[i] = time.Duration(s * float64(time.Second))
	}

	// Step 2: SP baseline and the sweep.
	baselineArms := []abtest.Arm{{Name: "SP", Scheme: core.SchemeSinglePath}}
	for _, set := range fig10Settings {
		arm := abtest.Arm{Name: set.name}
		if set.off {
			arm.Scheme = core.SchemeVanillaMP
		} else {
			th := qoe.CalibrateThresholds(samples, set.x, set.y)
			arm.Scheme = core.SchemeXLINK
			arm.Options = core.Options{Thresholds: th}
		}
		baselineArms = append(baselineArms, arm)
	}
	res := abtest.RunParallel(abtest.Population{Day: 2, Sessions: scale.SessionsPerDay, Seed: seed}, baselineArms, runtime.NumCPU())
	sp := res["SP"]
	spBuf := stats.Summarize(sp.BufferLevels)

	tab := stats.Table{Header: []string{"Setting", "buf p90 improv", "buf p95 improv", "buf p99 improv", "cost(%)", "<50ms reduction"}}
	metrics := map[string]float64{}
	// Table 2 measures what re-injection buys: the reduction of <50 ms
	// buffer levels relative to the no-re-injection multi-path baseline.
	off := res[fig10Settings[0].name]
	for _, set := range fig10Settings {
		r := res[set.name]
		buf := stats.Summarize(r.BufferLevels)
		// Buffer levels: higher is better, so improvement is (arm-sp)/sp.
		improve := func(armV, spV float64) float64 {
			if spV == 0 {
				return 0
			}
			return (armV - spV) / spV * 100
		}
		danger := abtest.Improvement(off, r, func(a *abtest.ArmResult) float64 { return a.DangerFraction() })
		cost := r.CostOverhead() * 100
		tab.AddRow(set.name,
			pct(improve(buf.P90, spBuf.P90)), pct(improve(buf.P95, spBuf.P95)),
			pct(improve(buf.P99, spBuf.P99)), fmt.Sprintf("%.2f", cost), pct(danger))
		key := strings.ReplaceAll(strings.ReplaceAll(set.name, "-", "_"), " ", "")
		metrics["cost_"+key] = cost
		metrics["danger_reduction_"+key] = danger
	}
	var b strings.Builder
	b.WriteString("Buffer occupancy and cost vs double thresholds (Fig 10), and\n")
	b.WriteString("reduction of buffer levels < 50ms vs re-injection off (Table 2 analogue):\n")
	b.WriteString(tab.String())
	fmt.Fprintf(&b, "\ncalibration distribution: %s (seconds of play-time left)\n",
		stats.Summarize(cal.BufferLevels).String())
	b.WriteString("expected shape: cost ~0 when off, maximal at (1-1) [no QoE control ~ 15%],\n")
	b.WriteString("moderate settings like (95-80) keep most of the danger reduction at a few %% cost.\n")
	return Report{
		ID:         "fig10-table2",
		Title:      "Double-threshold sweep: buffer levels vs cost (Sec 7.1)",
		Body:       b.String(),
		KeyMetrics: metrics,
	}
}
