package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/video"
	"repro/internal/wire"
)

// Fig7PrimaryPath reproduces Fig 7: first-video-frame delivery time vs
// frame size when the connection starts on Wi-Fi vs 5G-SA. The 5G-SA
// testbed path is faster and lower-delay, so starting there is better —
// wireless-aware primary selection picks it automatically.
func Fig7PrimaryPath(scale Scale, seed int64) Report {
	frameSizes := []uint64{128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20}
	paths := []netem.PathConfig{
		{Name: "wifi", Tech: trace.TechWiFi,
			Up:          trace.ConstantRate("wifi", 25, time.Second),
			OneWayDelay: trace.DelayWiFi.MedianRTT / 2},
		{Name: "5gsa", Tech: trace.Tech5GSA,
			Up:          trace.ConstantRate("5g", 60, time.Second),
			OneWayDelay: trace.Delay5GSA.MedianRTT / 2},
	}
	measure := func(forceWiFi bool, frameSize uint64, rep int) time.Duration {
		v := video.Video{ID: "f", Size: frameSize * 2, BitrateBps: 4_000_000, FPS: 30, FirstFrameSize: frameSize}
		res, err := core.RunSession(core.SessionConfig{
			Scheme:    core.SchemeVanillaMP, // for its multi-path params; Configure replaces the rest
			Paths:     paths,
			Video:     v,
			Requester: video.RequesterConfig{ChunkSize: v.Size, MaxConcurrent: 1},
			Seed:      seed + int64(rep),
			Deadline:  30 * time.Second,
			Configure: func(ccfg, scfg *transport.Config) {
				// Cellular/secondary interface bring-up takes a few hundred
				// ms on phones; during that window only the primary carries
				// the video start — which is exactly why the primary choice
				// matters (Fig 7).
				*ccfg = transport.Config{Params: ccfg.Params, Seed: seed + int64(rep),
					SecondaryPathDelay: 400 * time.Millisecond, ForcePrimary: forceWiFi}
				// No re-injection here: Fig 7 isolates the primary-path
				// choice itself (re-injection would partially rescue a bad
				// choice).
				*scfg = transport.Config{Params: scfg.Params, Seed: seed + int64(rep) + 100}
			},
		})
		if err != nil {
			return 0
		}
		return res.Metrics.FirstFrameLatency
	}

	tab := stats.Table{Header: []string{"first frame size", "WiFi primary (ms)", "5G primary (ms)"}}
	metrics := map[string]float64{}
	var b strings.Builder
	for _, fs := range frameSizes {
		var wifiMS, fiveGMS float64
		for rep := 0; rep < scale.Repetitions; rep++ {
			wifiMS += float64(measure(true, fs, rep)) / float64(time.Millisecond)
			fiveGMS += float64(measure(false, fs, rep)) / float64(time.Millisecond)
		}
		wifiMS /= float64(scale.Repetitions)
		fiveGMS /= float64(scale.Repetitions)
		label := fmt.Sprintf("%dK", fs>>10)
		if fs >= 1<<20 {
			label = fmt.Sprintf("%dM", fs>>20)
		}
		tab.AddRow(label, fmt.Sprintf("%.0f", wifiMS), fmt.Sprintf("%.0f", fiveGMS))
		metrics["ratio_"+label] = wifiMS / fiveGMS
	}
	b.WriteString(tab.String())
	b.WriteString("\n(wireless-aware selection starts on 5G-SA automatically: 5G-SA > 5G-NSA > WiFi > LTE)\n")
	return Report{
		ID:         "fig7",
		Title:      "First-frame delivery vs primary path choice (Fig 7)",
		Body:       b.String(),
		KeyMetrics: metrics,
	}
}

// Fig8AckPath reproduces Fig 8: request completion time of a 4 MB load
// over two equal-bandwidth paths as the RTT ratio grows from 1:1 to 8:1,
// comparing ACK_MP on the min-RTT path vs on the original path, with
// Cubic.
func Fig8AckPath(scale Scale, seed int64) Report {
	const size = 4 << 20
	baseRTT := 30 * time.Millisecond
	tab := stats.Table{Header: []string{"RTT ratio", "minRTT-path (s)", "original-path (s)"}}
	metrics := map[string]float64{}
	var b strings.Builder
	for ratio := 1; ratio <= 8; ratio++ {
		paths := []netem.PathConfig{
			{Name: "fast", Tech: trace.TechWiFi,
				Up: trace.ConstantRate("fast", 20, time.Second), OneWayDelay: baseRTT / 2},
			{Name: "slow", Tech: trace.TechLTE,
				Up: trace.ConstantRate("slow", 20, time.Second), OneWayDelay: time.Duration(ratio) * baseRTT / 2},
		}
		run := func(policy transport.AckPolicy) float64 {
			var total float64
			for rep := 0; rep < scale.Repetitions; rep++ {
				params := wire.DefaultTransportParams()
				params.EnableMultipath = true
				repSeed := seed + int64(rep*17)
				d, _ := core.Download(transport.Config{Params: params, Seed: repSeed, AckPolicy: policy},
					transport.Config{Params: params, Seed: repSeed + 100, AckPolicy: policy},
					paths, size, repSeed, 60*time.Second)
				total += d.Seconds()
			}
			return total / float64(scale.Repetitions)
		}
		minRTT := run(transport.AckMinRTT)
		orig := run(transport.AckOriginalPath)
		tab.AddRow(fmt.Sprintf("%d:1", ratio),
			fmt.Sprintf("%.3f", minRTT), fmt.Sprintf("%.3f", orig))
		metrics[fmt.Sprintf("gain_at_%d_1", ratio)] = (orig - minRTT) / orig * 100
	}
	b.WriteString(tab.String())
	b.WriteString("\n(positive gain = fastest-path ACK_MP faster; advantage should grow with the ratio)\n")
	return Report{
		ID:         "fig8",
		Title:      "ACK_MP return-path policy vs path RTT ratio (Fig 8)",
		Body:       b.String(),
		KeyMetrics: metrics,
	}
}
