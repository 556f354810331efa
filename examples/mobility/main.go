// Mobility: the Fig 13 scenario in miniature — a 4 MB download on a
// high-speed-rail trace pair (cellular with tunnel outages + flaky onboard
// Wi-Fi) under SP, vanilla-MP, MPTCP, connection migration, and XLINK.
//
//	go run ./examples/mobility
package main

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/cm"
	"repro/internal/core"
	"repro/internal/mptcp"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

const size = 4 << 20

func paths(pair trace.MobilityPair) []netem.PathConfig {
	return []netem.PathConfig{
		{Name: "cellular", Tech: trace.TechLTE, Up: pair.Cellular,
			OneWayDelay: trace.DelayLTE.MedianRTT / 2},
		{Name: "wifi", Tech: trace.TechWiFi, Up: pair.WiFi,
			OneWayDelay: trace.DelayWiFi.MedianRTT / 2},
	}
}

func runScheme(scheme core.Scheme, pair trace.MobilityPair, seed int64) time.Duration {
	x := core.New(scheme, core.Options{})
	done, ok := core.Download(x.ClientConfig(seed), x.ServerConfig(seed+1), paths(pair), size, seed, 120*time.Second)
	if !ok {
		return 0
	}
	return done
}

func runCM(pair trace.MobilityPair, seed int64) time.Duration {
	x := core.New(core.SchemeSinglePath, core.Options{})
	dl := core.NewBulk(x.ClientConfig(seed), x.ServerConfig(seed+1), paths(pair), size, seed)
	ctrl := cm.NewController(dl.Loop, dl.Pair.Client, cm.DefaultConfig(), []cm.Interface{
		{NetIdx: 0, Tech: trace.TechLTE}, {NetIdx: 1, Tech: trace.TechWiFi},
	})
	dl.OnStart = func(time.Duration) { ctrl.Start() }
	dl.OnDone = func(time.Duration) { ctrl.Stop() }
	done, ok := dl.Run(120 * time.Second)
	if !ok {
		return 0
	}
	return done
}

func main() {
	pair := trace.ExtremeMobilitySet(sim.NewRNG(99), 2, 90*time.Second)[1] // an HSR pair
	fmt.Printf("trace pair: %s (cellular %.1f Mbps mean, wifi %.1f Mbps mean)\n\n",
		pair.Name, pair.Cellular.MeanThroughputBps()/1e6, pair.WiFi.MeanThroughputBps()/1e6)

	report := func(name string, d time.Duration) {
		if d == 0 {
			fmt.Printf("%-11s did not finish\n", name)
			return
		}
		fmt.Printf("%-11s %6.2fs\n", name, d.Seconds())
	}
	report("SP", runScheme(core.SchemeSinglePath, pair, 5))
	report("CM", runCM(pair, 5))
	loop := sim.NewLoop()
	nw := netem.NewNetwork(loop, sim.NewRNG(5), paths(pair))
	mptcpDone, ok := mptcp.Download(loop, nw, size, cc.AlgCubic, 120*time.Second, nil)
	if !ok {
		mptcpDone = 0
	}
	report("MPTCP", mptcpDone)
	report("vanilla-MP", runScheme(core.SchemeVanillaMP, pair, 5))
	report("XLINK", runScheme(core.SchemeXLINK, pair, 5))
	fmt.Println("\nexpected ordering (Fig 13): XLINK fastest, SP slowest.")
}
