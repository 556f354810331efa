package core

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/qoe"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/video"
)

func simRNG(seed int64) *sim.RNG { return sim.NewRNG(seed) }

func testVideo(sizeMB int) video.Video {
	return video.Video{
		ID:             "t",
		Size:           uint64(sizeMB) << 20,
		BitrateBps:     2_000_000,
		FPS:            30,
		FirstFrameSize: 64 << 10,
	}
}

func stablePaths(wifiMbps, lteMbps float64) []netem.PathConfig {
	return transport.TwoPathConfig(wifiMbps, lteMbps, 20*time.Millisecond, 60*time.Millisecond)
}

func TestSchemeStrings(t *testing.T) {
	want := map[Scheme]string{
		SchemeSinglePath: "SP", SchemeVanillaMP: "vanilla-MP",
		SchemeReinjNoQoE: "reinj-no-qoe", SchemeXLINK: "XLINK", Scheme(99): "unknown",
	}
	for s, w := range want {
		if s.String() != w {
			t.Fatalf("%d -> %s", s, s.String())
		}
	}
}

func TestSchemeConfigs(t *testing.T) {
	x := New(SchemeXLINK, Options{})
	scfg := x.ServerConfig(1)
	if scfg.ReinjectionMode != transport.ReinjectFramePriority {
		t.Fatal("XLINK default should be frame-priority re-injection")
	}
	if scfg.ReinjectionGate == nil || scfg.FECGate == nil || scfg.OnQoE == nil {
		t.Fatal("XLINK server must wire the QoE and redundancy controllers")
	}
	if !scfg.Params.EnableMultipath {
		t.Fatal("XLINK negotiates multipath")
	}

	x2 := New(SchemeXLINK, Options{DisableFrameAcceleration: true})
	if x2.ServerConfig(1).ReinjectionMode != transport.ReinjectStreamPriority {
		t.Fatal("disabling frame acceleration should fall back to stream priority")
	}

	v := New(SchemeVanillaMP, Options{})
	if v.ServerConfig(1).ReinjectionMode != transport.ReinjectNone {
		t.Fatal("vanilla-MP must not re-inject")
	}
	if v.ServerConfig(1).ReinjectionGate != nil {
		t.Fatal("vanilla-MP has no gate")
	}

	sp := New(SchemeSinglePath, Options{})
	if sp.ServerConfig(1).Params.EnableMultipath {
		t.Fatal("SP must not negotiate multipath")
	}

	nq := New(SchemeReinjNoQoE, Options{})
	if nq.ServerConfig(1).ReinjectionMode != transport.ReinjectStreamPriority {
		t.Fatal("reinj-no-qoe uses stream priority")
	}
	if nq.ServerConfig(1).ReinjectionGate != nil {
		t.Fatal("reinj-no-qoe must not gate")
	}
}

func TestDefaultThresholdsUsedWhenZero(t *testing.T) {
	x := New(SchemeXLINK, Options{})
	if x.Controller.Thresholds() != DefaultThresholds {
		t.Fatal("zero options should use default thresholds")
	}
	th := qoe.Thresholds{Tth1: time.Second, Tth2: 3 * time.Second}
	x2 := New(SchemeXLINK, Options{Thresholds: th})
	if x2.Controller.Thresholds() != th {
		t.Fatal("explicit thresholds should be honoured")
	}
}

func runScheme(t *testing.T, scheme Scheme, paths []netem.PathConfig, sizeMB int, seed int64) SessionResult {
	t.Helper()
	res, err := RunSession(SessionConfig{
		Scheme: scheme,
		Paths:  paths,
		Video:  testVideo(sizeMB),
		Seed:   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSessionCompletesAllSchemes(t *testing.T) {
	for _, scheme := range []Scheme{SchemeSinglePath, SchemeVanillaMP, SchemeReinjNoQoE, SchemeXLINK} {
		res := runScheme(t, scheme, stablePaths(10, 10), 2, 42)
		if !res.Completed {
			t.Fatalf("%v: session incomplete", scheme)
		}
		if !res.Metrics.Finished {
			t.Fatalf("%v: playback unfinished (rebuffer=%v)", scheme, res.Metrics.RebufferTime)
		}
		if len(res.ChunkRCTs) != 4 {
			t.Fatalf("%v: %d chunk RCTs, want 4", scheme, len(res.ChunkRCTs))
		}
		if res.DownloadTime <= 0 {
			t.Fatalf("%v: bad download time", scheme)
		}
	}
}

func TestSinglePathNoRedundancy(t *testing.T) {
	res := runScheme(t, SchemeSinglePath, stablePaths(10, 10), 1, 7)
	if res.Redundancy != 0 {
		t.Fatalf("SP redundancy = %v", res.Redundancy)
	}
	if res.ServerStats.ReinjectedBytesSent != 0 {
		t.Fatal("SP must not re-inject")
	}
}

func TestVanillaMPNoRedundancy(t *testing.T) {
	res := runScheme(t, SchemeVanillaMP, stablePaths(10, 10), 1, 7)
	if res.ServerStats.ReinjectedBytesSent != 0 {
		t.Fatal("vanilla-MP must not re-inject")
	}
}

func TestReinjNoQoECostsMoreThanXLINK(t *testing.T) {
	// On heterogeneous paths with a healthy buffer, the QoE gate should
	// suppress most re-injection that the ungated variant performs.
	paths := transport.TwoPathConfig(12, 3, 20*time.Millisecond, 120*time.Millisecond)
	noQoE := runScheme(t, SchemeReinjNoQoE, paths, 2, 11)
	xlink := runScheme(t, SchemeXLINK, paths, 2, 11)
	if noQoE.ServerStats.ReinjectedBytesSent == 0 {
		t.Fatal("ungated re-injection should occur on heterogeneous paths")
	}
	if xlink.Redundancy > noQoE.Redundancy {
		t.Fatalf("XLINK redundancy %.3f should not exceed ungated %.3f",
			xlink.Redundancy, noQoE.Redundancy)
	}
}

func TestXLINKBeatsVanillaUnderOutage(t *testing.T) {
	// Wi-Fi path with an outage window; LTE stable. XLINK should rebuffer
	// less than vanilla-MP.
	run := func(scheme Scheme) SessionResult {
		loopPaths := []netem.PathConfig{
			{
				Name: "wifi", Tech: trace.TechWiFi,
				Up:          trace.WalkingWiFi(simRNG(3), 6*time.Second),
				OneWayDelay: 10 * time.Millisecond,
			},
			{
				Name: "lte", Tech: trace.TechLTE,
				Up:          trace.WalkingLTE(simRNG(3), 6*time.Second),
				OneWayDelay: 30 * time.Millisecond,
			},
		}
		res, err := RunSession(SessionConfig{
			Scheme:   scheme,
			Paths:    loopPaths,
			Video:    testVideo(4),
			Seed:     3,
			Deadline: 90 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	vanilla := run(SchemeVanillaMP)
	xlink := run(SchemeXLINK)
	if !xlink.Completed {
		t.Fatal("XLINK session incomplete")
	}
	if xlink.Metrics.RebufferTime > vanilla.Metrics.RebufferTime {
		t.Fatalf("XLINK rebuffer %v should not exceed vanilla %v",
			xlink.Metrics.RebufferTime, vanilla.Metrics.RebufferTime)
	}
}

func TestBufferSeriesRecorded(t *testing.T) {
	res := runScheme(t, SchemeXLINK, stablePaths(10, 10), 1, 5)
	if res.BufferSeries.Len() == 0 {
		t.Fatal("buffer series empty")
	}
	if res.ReinjectSeries.Len() == 0 {
		t.Fatal("reinject series empty")
	}
}

func TestFECReachableThroughConfigure(t *testing.T) {
	// FEC has no session field of its own: a lossy XLINK session that turns
	// on EnableFEC at both ends sends repair symbols, and the redundancy
	// controller core wires as the server's FEC gate protects windows.
	paths := stablePaths(6, 4)
	paths[0].LossRate, paths[1].LossRate = 0.03, 0.03
	s := NewSession(SessionConfig{
		Scheme: SchemeXLINK,
		Paths:  paths,
		Video:  testVideo(2),
		Seed:   17,
		Configure: func(c, s *transport.Config) {
			c.Params.EnableFEC, s.Params.EnableFEC = true, true
		},
	})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("FEC session incomplete")
	}
	if res.ServerStats.FECRepairsSent == 0 {
		t.Fatal("no repair symbols sent with EnableFEC set through Configure")
	}
	if _, protects := s.XLINK.Redundancy.Stats(); protects == 0 {
		t.Fatal("the redundancy controller protected no window")
	}
}
