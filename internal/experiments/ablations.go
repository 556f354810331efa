package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/qoe"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/video"
	"repro/internal/wire"
)

// ablationPaths is a heterogeneous two-path setup with a Wi-Fi outage —
// the regime where the design choices matter.
func ablationPaths(seed int64, dur time.Duration) []netem.PathConfig {
	rng := sim.NewRNG(seed)
	return []netem.PathConfig{
		{Name: "wifi", Tech: trace.TechWiFi, Up: trace.WalkingWiFi(rng, dur),
			OneWayDelay: trace.DelayWiFi.MedianRTT / 2},
		{Name: "lte", Tech: trace.TechLTE, Up: trace.WalkingLTE(rng, dur),
			OneWayDelay: trace.DelayLTE.MedianRTT / 2},
	}
}

// ablationVideo is the session content for the ablations.
func ablationVideo() video.Video {
	return video.Video{
		ID: "abl", Size: 6 << 20, BitrateBps: 3_000_000, FPS: 30,
		FirstFrameSize: 96 << 10,
	}
}

// AblationReinjectionModes compares the three re-injection placements of
// Fig 4 (appending, stream priority, frame priority) plus none, holding
// everything else fixed.
func AblationReinjectionModes(scale Scale, seed int64) Report {
	modes := []struct {
		name string
		mode transport.ReinjectionMode
	}{
		{"none", transport.ReinjectNone},
		{"appending", transport.ReinjectAppending},
		{"stream-priority", transport.ReinjectStreamPriority},
		{"frame-priority", transport.ReinjectFramePriority},
	}
	tab := stats.Table{Header: []string{"Mode", "download(s)", "first-frame(ms)", "rebuffer(ms)", "redundancy(%)"}}
	metrics := map[string]float64{}
	for _, m := range modes {
		var dl, ff, rb, red float64
		n := 0
		for rep := 0; rep < scale.Repetitions; rep++ {
			res, err := core.RunSession(core.SessionConfig{
				Scheme:    core.SchemeXLINK,
				Paths:     ablationPaths(seed+int64(rep), 30*time.Second),
				Video:     ablationVideo(),
				Seed:      seed + int64(rep),
				Deadline:  60 * time.Second,
				Configure: func(_, scfg *transport.Config) { scfg.ReinjectionMode = m.mode },
			})
			if err != nil || !res.Completed {
				continue
			}
			n++
			dl += res.DownloadTime.Seconds()
			ff += res.Metrics.FirstFrameLatency.Seconds() * 1000
			rb += res.Metrics.RebufferTime.Seconds() * 1000
			red += res.Redundancy * 100
		}
		if n == 0 {
			continue
		}
		f := float64(n)
		tab.AddRow(m.name, fmt.Sprintf("%.2f", dl/f), fmt.Sprintf("%.0f", ff/f),
			fmt.Sprintf("%.0f", rb/f), fmt.Sprintf("%.2f", red/f))
		key := strings.ReplaceAll(m.name, "-", "_")
		metrics["ff_ms_"+key] = ff / f
		metrics["download_s_"+key] = dl / f
		metrics["redundancy_pct_"+key] = red / f
	}
	var b strings.Builder
	b.WriteString("Re-injection placement ablation (Fig 4 modes):\n")
	b.WriteString(tab.String())
	return Report{
		ID:         "ablation-reinjection",
		Title:      "Re-injection mode ablation",
		Body:       b.String(),
		KeyMetrics: metrics,
	}
}

// AblationSingleThreshold contrasts double thresholding against a single
// threshold (Tth1 == Tth2, losing the delivery-time comparison region) and
// always-on re-injection.
func AblationSingleThreshold(scale Scale, seed int64) Report {
	variants := []struct {
		name string
		opts core.Options
	}{
		{"double (0.5s, 2s)", core.Options{Thresholds: qoe.Thresholds{Tth1: 500 * time.Millisecond, Tth2: 2 * time.Second}}},
		{"single (1s)", core.Options{Thresholds: qoe.Thresholds{Tth1: time.Second, Tth2: time.Second}}},
		{"always-on", core.Options{Thresholds: qoe.Thresholds{Tth1: time.Hour, Tth2: time.Hour}}},
	}
	tab := stats.Table{Header: []string{"Controller", "rebuffer(ms)", "redundancy(%)"}}
	metrics := map[string]float64{}
	for i, v := range variants {
		var rb, red float64
		n := 0
		for rep := 0; rep < scale.Repetitions; rep++ {
			res, err := core.RunSession(core.SessionConfig{
				Scheme:   core.SchemeXLINK,
				Options:  v.opts,
				Paths:    ablationPaths(seed+int64(rep), 30*time.Second),
				Video:    ablationVideo(),
				Seed:     seed + int64(rep),
				Deadline: 60 * time.Second,
			})
			if err != nil || !res.Completed {
				continue
			}
			n++
			rb += res.Metrics.RebufferTime.Seconds() * 1000
			red += res.Redundancy * 100
		}
		if n == 0 {
			continue
		}
		f := float64(n)
		tab.AddRow(v.name, fmt.Sprintf("%.0f", rb/f), fmt.Sprintf("%.2f", red/f))
		metrics[fmt.Sprintf("redundancy_v%d", i)] = red / f
	}
	var b strings.Builder
	b.WriteString("Threshold-structure ablation (double vs single vs always-on):\n")
	b.WriteString(tab.String())
	b.WriteString("\n(always-on pays maximal redundancy; double thresholding keeps the\n")
	b.WriteString(" delivery-time comparison region that prunes unnecessary re-injection)\n")
	return Report{
		ID:         "ablation-threshold",
		Title:      "Double vs single thresholding",
		Body:       b.String(),
		KeyMetrics: metrics,
	}
}

// AblationCC compares Cubic and NewReno on the Fig 8 workload (4 MB over
// heterogeneous-RTT paths), confirming the scheduler's behaviour is not an
// artifact of one congestion controller.
func AblationCC(scale Scale, seed int64) Report {
	paths := []netem.PathConfig{
		{Name: "fast", Tech: trace.TechWiFi,
			Up: trace.ConstantRate("fast", 20, time.Second), OneWayDelay: 15 * time.Millisecond},
		{Name: "slow", Tech: trace.TechLTE,
			Up: trace.ConstantRate("slow", 20, time.Second), OneWayDelay: 60 * time.Millisecond},
	}
	tab := stats.Table{Header: []string{"CC", "download(s)"}}
	metrics := map[string]float64{}
	for _, alg := range []cc.Algorithm{cc.AlgCubic, cc.AlgNewReno} {
		var total float64
		for rep := 0; rep < scale.Repetitions; rep++ {
			repSeed := seed + int64(rep*13)
			x := core.New(core.SchemeXLINK, core.Options{})
			ccfg, scfg := x.ClientConfig(repSeed), x.ServerConfig(repSeed+1)
			ccfg.CCAlgorithm, scfg.CCAlgorithm = alg, alg
			d, _ := core.Download(ccfg, scfg, paths, 4<<20, repSeed, 60*time.Second)
			total += d.Seconds()
		}
		mean := total / float64(scale.Repetitions)
		name := cc.New(alg).Name()
		tab.AddRow(name, fmt.Sprintf("%.2f", mean))
		metrics["download_s_"+name] = mean
	}
	var b strings.Builder
	b.WriteString("Congestion-control ablation on the Fig 8 workload:\n")
	b.WriteString(tab.String())
	return Report{
		ID:         "ablation-cc",
		Title:      "Cubic vs NewReno under XLINK",
		Body:       b.String(),
		KeyMetrics: metrics,
	}
}

// AblationDeltaT compares the Δt estimators: conservative min of
// frames/fps and bytes/bps (the paper's recommendation) vs each alone,
// implemented by feeding the controller signals stripped of one input.
func AblationDeltaT(scale Scale, seed int64) Report {
	variants := []struct {
		name  string
		strip func(s video.Video) bool // marker only; stripping happens via provider
	}{
		{"min(frames/fps, bytes/bps)", nil},
		{"frames/fps only", nil},
		{"bytes/bps only", nil},
	}
	tab := stats.Table{Header: []string{"Estimator", "rebuffer(ms)", "redundancy(%)"}}
	metrics := map[string]float64{}
	for i, v := range variants {
		var rb, red float64
		n := 0
		for rep := 0; rep < scale.Repetitions; rep++ {
			sess := core.NewSession(core.SessionConfig{
				Scheme:   core.SchemeXLINK,
				Paths:    ablationPaths(seed+int64(rep), 30*time.Second),
				Video:    ablationVideo(),
				Seed:     seed + int64(rep),
				Deadline: 60 * time.Second,
			})
			// Wrap the player's QoE provider to strip one input.
			player := sess.Player
			mode := i
			sess.Pair.Client.SetQoEProvider(func() wire.QoESignal {
				s := player.QoESignal()
				switch mode {
				case 1:
					s.CachedBytes, s.BitrateBps = 0, 0
				case 2:
					s.CachedFrames, s.FramerateFPS = 0, 0
				}
				return s
			})
			res, err := sess.Run()
			if err != nil || !res.Completed {
				continue
			}
			n++
			rb += res.Metrics.RebufferTime.Seconds() * 1000
			red += res.Redundancy * 100
		}
		if n == 0 {
			continue
		}
		f := float64(n)
		tab.AddRow(v.name, fmt.Sprintf("%.0f", rb/f), fmt.Sprintf("%.2f", red/f))
		metrics[fmt.Sprintf("rebuffer_ms_v%d", i)] = rb / f
	}
	var b strings.Builder
	b.WriteString("Δt estimator ablation (Sec 5.2.2 step 1):\n")
	b.WriteString(tab.String())
	return Report{
		ID:         "ablation-deltat",
		Title:      "Play-time-left estimator ablation",
		Body:       b.String(),
		KeyMetrics: metrics,
	}
}
