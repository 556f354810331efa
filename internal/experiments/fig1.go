package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/abtest"
	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Fig1Dynamics reproduces Fig 1a/1b: vanilla-MP replayed over the
// campus-walk Wi-Fi and LTE traces, reporting per-window link capacity,
// in-flight bytes, and congestion window on each path. The Wi-Fi outage
// window shows in-flight staying high while capacity collapses.
func Fig1Dynamics(seed int64) Report {
	const window = 100 * time.Millisecond
	duration := 3 * time.Second
	rng := sim.NewRNG(seed)
	wifiTrace := trace.WalkingWiFi(rng, duration)
	lteTrace := trace.WalkingLTE(rng, duration)

	params := wire.DefaultTransportParams()
	params.EnableMultipath = true
	// Saturating transfer: enough data to keep both paths busy all 3 s.
	dl := core.NewBulk(transport.Config{Params: params, Seed: seed}, transport.Config{Params: params, Seed: seed + 1},
		[]netem.PathConfig{
			{Name: "wifi", Tech: trace.TechWiFi, Up: wifiTrace, OneWayDelay: 8 * time.Millisecond},
			{Name: "lte", Tech: trace.TechLTE, Up: lteTrace, OneWayDelay: 22 * time.Millisecond},
		}, 32<<20, rng.ForkSeed("net"))

	type sample struct{ inflightKB, cwndKB [2]float64 }
	var samples []sample
	var tick func(now time.Duration)
	tick = func(now time.Duration) {
		var s sample
		for i, p := range dl.Pair.Server.Paths() {
			if i > 1 {
				break
			}
			s.inflightKB[i] = float64(p.CC.BytesInFlight()) / 1024
			s.cwndKB[i] = float64(p.CC.Window()) / 1024
		}
		samples = append(samples, s)
		if now < duration {
			dl.Loop.After(window, tick)
		}
	}
	dl.Loop.After(window, tick)
	dl.Run(duration)

	_, wifiMbps := wifiTrace.ThroughputSeries(window)
	_, lteMbps := lteTrace.ThroughputSeries(window)

	var b strings.Builder
	tab := stats.Table{Header: []string{"t(s)", "wifi-cap(Mbps)", "wifi-inflight(KB)", "wifi-cwnd(KB)", "lte-cap(Mbps)", "lte-inflight(KB)", "lte-cwnd(KB)"}}
	outageInflightMax := 0.0
	outageCapMax := 0.0
	for i, s := range samples {
		capW, capL := 0.0, 0.0
		if i < len(wifiMbps) {
			capW = wifiMbps[i]
		}
		if i < len(lteMbps) {
			capL = lteMbps[i]
		}
		t := float64(i+1) * window.Seconds()
		tab.AddRow(fmt.Sprintf("%.1f", t),
			fmt.Sprintf("%.1f", capW), fmt.Sprintf("%.1f", s.inflightKB[0]), fmt.Sprintf("%.1f", s.cwndKB[0]),
			fmt.Sprintf("%.1f", capL), fmt.Sprintf("%.1f", s.inflightKB[1]), fmt.Sprintf("%.1f", s.cwndKB[1]))
		// Outage window is 55-75% of the trace (1.65s-2.25s); restrict to
		// buckets fully inside it.
		if t >= 1.8 && t <= 2.2 {
			if s.inflightKB[0] > outageInflightMax {
				outageInflightMax = s.inflightKB[0]
			}
			if capW > outageCapMax {
				outageCapMax = capW
			}
		}
	}
	b.WriteString(tab.String())
	return Report{
		ID:    "fig1ab",
		Title: "Vanilla-MP dynamics on fast-varying wireless (Fig 1a/1b)",
		Body:  b.String(),
		KeyMetrics: map[string]float64{
			"wifi_outage_capacity_max_mbps": outageCapMax,
			"wifi_outage_inflight_max_kb":   outageInflightMax,
		},
	}
}

// vanillaArms are the Sec 3.3 A/B arms.
func vanillaArms() []abtest.Arm {
	return []abtest.Arm{
		{Name: "SP", Scheme: core.SchemeSinglePath},
		{Name: "vanilla-MP", Scheme: core.SchemeVanillaMP},
	}
}

// Fig1cTable1 reproduces the Sec 3.3 deployment study: the day-by-day RCT
// comparison of vanilla-MP vs SP (Fig 1c) and the rebuffer-rate reduction
// (Table 1, negative = vanilla-MP worse).
func Fig1cTable1(scale Scale, seed int64) Report {
	var b strings.Builder
	rct := stats.Table{Header: []string{"Day", "SP-p50", "MP-p50", "SP-p95", "MP-p95", "SP-p99", "MP-p99"}}
	reb := stats.Table{Header: []string{"Day", "SP rate", "MP rate", "reduction (%)"}}
	var worstP99, worstRebuffer float64
	for day := 1; day <= scale.Days; day++ {
		res := abtest.RunParallel(abtest.Population{Day: day, Sessions: scale.SessionsPerDay, Seed: seed}, vanillaArms(), runtime.NumCPU())
		sp, mp := res["SP"], res["vanilla-MP"]
		ssp, smp := sp.RCTSummary(), mp.RCTSummary()
		rct.AddRow(fmt.Sprintf("%d", day),
			fmt.Sprintf("%.3f", ssp.P50), fmt.Sprintf("%.3f", smp.P50),
			fmt.Sprintf("%.3f", ssp.P95), fmt.Sprintf("%.3f", smp.P95),
			fmt.Sprintf("%.3f", ssp.P99), fmt.Sprintf("%.3f", smp.P99))
		improv := abtest.Improvement(sp, mp, func(r *abtest.ArmResult) float64 { return r.RebufferRate() })
		reb.AddRow(fmt.Sprintf("%d", day),
			fmt.Sprintf("%.4f", sp.RebufferRate()), fmt.Sprintf("%.4f", mp.RebufferRate()),
			fmt.Sprintf("%+.1f", improv))
		if p := stats.Improvement(ssp.P99, smp.P99); p < worstP99 {
			worstP99 = p
		}
		if improv < worstRebuffer {
			worstRebuffer = improv
		}
	}
	b.WriteString("Request completion time, vanilla-MP vs SP (Fig 1c):\n")
	b.WriteString(rct.String())
	b.WriteString("\nRebuffer-rate reduction, vanilla-MP vs SP (Table 1; negative = worse):\n")
	b.WriteString(reb.String())
	return Report{
		ID:    "fig1c-table1",
		Title: "Vanilla-MP deployment study (Sec 3.3)",
		Body:  b.String(),
		KeyMetrics: map[string]float64{
			"worst_p99_rct_improvement_pct":  worstP99,
			"worst_rebuffer_improvement_pct": worstRebuffer,
		},
	}
}
