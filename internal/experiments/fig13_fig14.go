package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cc"
	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/video"
)

// fig13Schemes names the five transports of the extreme-mobility
// comparison.
var fig13Schemes = []string{"SP", "CM", "MPTCP", "vanilla-MP", "XLINK"}

// fig13Video is the content played in the mobility experiment: a paced
// constant-bitrate player, per Appendix B ("consumed received data at a
// constant bit-rate").
func fig13Video() video.Video {
	return video.Video{ID: "mob", Size: 12 << 20, BitrateBps: 3_000_000, FPS: 30, FirstFrameSize: 96 << 10}
}

// fig13Requester is the chunked fetch pattern: 512 KiB ranges, two
// concurrent streams, a small prefetch window.
func fig13Requester() video.RequesterConfig {
	return video.RequesterConfig{ChunkSize: 512 << 10, MaxConcurrent: 2, MaxBufferAhead: 2500 * time.Millisecond}
}

// mobilityChunkRCTs runs the paced video session under one scheme on a
// mobility trace pair and returns the per-chunk request completion times.
func mobilityChunkRCTs(scheme string, pair trace.MobilityPair, seed int64, deadline time.Duration) []float64 {
	paths := []netem.PathConfig{
		{Name: "cellular", Tech: trace.TechLTE, Up: pair.Cellular,
			OneWayDelay: trace.DelayLTE.MedianRTT / 2},
		{Name: "wifi", Tech: trace.TechWiFi, Up: pair.WiFi,
			OneWayDelay: trace.DelayWiFi.MedianRTT / 2},
	}
	v := fig13Video()
	switch scheme {
	case "MPTCP":
		// The MPTCP baseline streams the same bytes; chunk completion is
		// the time between successive 512 KiB delivery boundaries.
		loop := sim.NewLoop()
		nw := netem.NewNetwork(loop, sim.NewRNG(seed), paths)
		var rcts []float64
		var delivered uint64
		last := time.Duration(0)
		started := false
		ahead := uint64(2.5 * float64(v.BitrateBps) / 8)
		mptcp.DownloadPaced(loop, nw, v.Size, cc.AlgCubic, deadline, v.BitrateBps, ahead,
			func(now time.Duration, n uint64) {
				if !started {
					started = true
					last = now
				}
				before := delivered / (512 << 10)
				delivered += n
				after := delivered / (512 << 10)
				for b := before; b < after; b++ {
					rcts = append(rcts, (now - last).Seconds())
					last = now
				}
			})
		return rcts
	}
	cfg := core.SessionConfig{
		Paths:     paths,
		Video:     v,
		Seed:      seed,
		Requester: fig13Requester(),
		Deadline:  deadline,
	}
	switch scheme {
	case "SP":
		cfg.Scheme = core.SchemeSinglePath
	case "CM":
		// Connection migration: single-path QUIC, with the transport seeds
		// this arm has always used, plus the client-side controller below
		// that moves the connection when its path goes silent.
		cfg.Scheme = core.SchemeSinglePath
		cfg.Configure = func(ccfg, scfg *transport.Config) { ccfg.Seed, scfg.Seed = seed, seed+1 }
	case "vanilla-MP":
		cfg.Scheme = core.SchemeVanillaMP
	case "XLINK":
		cfg.Scheme = core.SchemeXLINK
	}
	s := core.NewSession(cfg)
	if scheme == "CM" {
		ctrl := cm.NewController(s.Loop, s.Pair.Client, cm.DefaultConfig(), []cm.Interface{
			{NetIdx: 0, Tech: trace.TechLTE},
			{NetIdx: 1, Tech: trace.TechWiFi},
		})
		s.Requester.SetOnComplete(func(now time.Duration) { ctrl.Stop() })
		s.Pair.Client.SetOnHandshakeDone(func(now time.Duration) {
			ctrl.Start()
			s.Requester.Start(now)
		})
	}
	res, err := s.Run()
	if err != nil {
		return nil
	}
	var rcts []float64
	for _, r := range res.ChunkRCTs {
		rcts = append(rcts, r.Seconds())
	}
	return rcts
}

// Fig13ExtremeMobility reproduces the extreme-mobility experiment
// (Sec 7.3): per-video-chunk request completion time (median and max) of a
// paced constant-bitrate video session on mobility trace pairs collected
// on subways and high-speed rail, for SP, CM, MPTCP, vanilla-MP and XLINK.
func Fig13ExtremeMobility(scale Scale, seed int64) Report {
	traceCount := 10
	if scale.Repetitions < 3 {
		traceCount = 4 // quick mode
	}
	pairs := trace.ExtremeMobilitySet(sim.NewRNG(seed), traceCount, 90*time.Second)
	const deadline = 120 * time.Second

	tab := stats.Table{Header: append([]string{"Trace"}, fig13Schemes...)}
	metrics := map[string]float64{}
	medSums := map[string]float64{}
	maxSums := map[string]float64{}
	for _, pr := range pairs {
		row := []string{pr.Name}
		for _, scheme := range fig13Schemes {
			var all []float64
			for rep := 0; rep < scale.Repetitions; rep++ {
				all = append(all, mobilityChunkRCTs(scheme, pr, seed+int64(rep*31), deadline)...)
			}
			med := stats.Percentile(all, 50)
			mx := stats.Max(all)
			row = append(row, fmt.Sprintf("%.2f/%.1f", med, mx))
			medSums[scheme] += med
			maxSums[scheme] += mx
		}
		tab.AddRow(row...)
	}
	var b strings.Builder
	b.WriteString("Video-chunk request completion time (median/max seconds) per trace (Fig 13):\n")
	b.WriteString(tab.String())
	b.WriteString("\nmeans across traces (median / max):\n")
	for _, scheme := range fig13Schemes {
		med := medSums[scheme] / float64(len(pairs))
		mx := maxSums[scheme] / float64(len(pairs))
		fmt.Fprintf(&b, "  %-11s %.2fs / %.2fs\n", scheme, med, mx)
		key := strings.ReplaceAll(scheme, "-", "_")
		metrics["mean_median_"+key] = med
		metrics["mean_max_"+key] = mx
	}
	b.WriteString("(expected: XLINK smallest median and max; SP worst; CM/MPTCP/vanilla between)\n")
	return Report{
		ID:         "fig13",
		Title:      "Extreme mobility comparison (Sec 7.3)",
		Body:       b.String(),
		KeyMetrics: metrics,
	}
}

// Fig14Energy reproduces the energy study (Sec 7.4): normalized energy
// per bit vs throughput for WiFi, LTE, NR and the multi-path combinations,
// with per-link rate capped at 30 Mbit/s. Throughputs are measured from
// emulated downloads; the radio energy comes from the calibrated power
// model (see DESIGN.md substitutions).
func Fig14Energy(scale Scale, seed int64) Report {
	const capMbps = 30.0
	sizes := []uint64{10 << 20, 30 << 20, 50 << 20}
	if scale.Repetitions < 3 {
		sizes = []uint64{10 << 20}
	}

	// Measure achieved throughput for single- and dual-path downloads
	// over capped links using the real transport.
	measureTput := func(nPaths int, size uint64) []float64 {
		paths := []netem.PathConfig{
			{Name: "a", Tech: trace.TechWiFi,
				Up: trace.ConstantRate("a", capMbps, time.Second), OneWayDelay: 10 * time.Millisecond},
		}
		if nPaths == 2 {
			paths = append(paths, netem.PathConfig{Name: "b", Tech: trace.TechLTE,
				Up: trace.ConstantRate("b", capMbps, time.Second), OneWayDelay: 25 * time.Millisecond})
		}
		scheme := core.SchemeSinglePath
		if nPaths == 2 {
			scheme = core.SchemeXLINK
		}
		x := core.New(scheme, core.Options{})
		dl := core.NewBulk(x.ClientConfig(seed), x.ServerConfig(seed+1), paths, size, seed)
		done, ok := dl.Run(200 * time.Second)
		if !ok {
			return nil
		}
		out := make([]float64, nPaths)
		for i, p := range dl.Pair.Server.Paths() {
			if i < nPaths {
				out[i] = float64(p.SentBytes*8) / done.Seconds() / 1e6
			}
		}
		return out
	}

	var results []energy.Result
	var b strings.Builder
	for _, size := range sizes {
		single := measureTput(1, size)
		dual := measureTput(2, size)
		if single == nil || dual == nil {
			continue
		}
		cfgs := energy.StandardConfigurations(capMbps)
		for _, cfg := range cfgs {
			var per []float64
			switch len(cfg.Radios) {
			case 1:
				per = single
			case 2:
				per = dual
			}
			r := energy.Measure(cfg, size, per)
			r.Name = fmt.Sprintf("%s-%dMB", cfg.Name, size>>20)
			results = append(results, r)
		}
	}
	norm := energy.Normalize(results)
	tab := stats.Table{Header: []string{"Config", "norm energy/bit", "norm throughput"}}
	metrics := map[string]float64{}
	for _, r := range norm {
		tab.AddRow(r.Name, fmt.Sprintf("%.3f", r.EnergyPerBitNJ), fmt.Sprintf("%.3f", r.ThroughputMbps))
		metrics["epb_"+strings.ReplaceAll(r.Name, "-", "_")] = r.EnergyPerBitNJ
	}
	b.WriteString("Normalized energy per bit vs throughput (Fig 14; top-left is better):\n")
	b.WriteString(tab.String())
	b.WriteString("\n(expected: WiFi most efficient; WiFi-LTE/WiFi-NR double throughput and\n")
	b.WriteString(" beat their single-path cellular counterparts in energy per bit)\n")
	return Report{
		ID:         "fig14",
		Title:      "Energy per bit vs throughput (Sec 7.4)",
		Body:       b.String(),
		KeyMetrics: metrics,
	}
}
