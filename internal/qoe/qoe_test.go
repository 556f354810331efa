package qoe

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/wire"
)

func TestDecideRegions(t *testing.T) {
	th := Thresholds{Tth1: 100 * time.Millisecond, Tth2: time.Second}
	deliver := 200 * time.Millisecond
	cases := []struct {
		dt   time.Duration
		want bool
	}{
		{50 * time.Millisecond, true},    // below Tth1: always on
		{99 * time.Millisecond, true},    // just below Tth1
		{2 * time.Second, false},         // above Tth2: always off
		{1001 * time.Millisecond, false}, // just above Tth2
		{150 * time.Millisecond, true},   // middle, dt < deliverTime
		{300 * time.Millisecond, false},  // middle, dt > deliverTime
		{200 * time.Millisecond, false},  // middle, dt == deliverTime
	}
	for _, c := range cases {
		if got := th.Decide(c.dt, deliver); got != c.want {
			t.Errorf("Decide(dt=%v) = %v, want %v", c.dt, got, c.want)
		}
	}
}

func TestThresholdsValid(t *testing.T) {
	if !(Thresholds{Tth1: 1, Tth2: 2}).Valid() {
		t.Fatal("ordered thresholds should be valid")
	}
	if (Thresholds{Tth1: 2, Tth2: 1}).Valid() {
		t.Fatal("inverted thresholds should be invalid")
	}
}

func TestControllerNoSignalDefaultsOn(t *testing.T) {
	c := NewController(Thresholds{Tth1: 100 * time.Millisecond, Tth2: time.Second})
	if !c.Decide(0, 50*time.Millisecond) {
		t.Fatal("without feedback the controller must allow re-injection")
	}
}

func TestControllerUsesSignal(t *testing.T) {
	c := NewController(Thresholds{Tth1: 100 * time.Millisecond, Tth2: time.Second})
	// 10s of buffer: way above Tth2.
	c.OnSignal(0, wire.QoESignal{CachedFrames: 300, FramerateFPS: 30})
	if c.Decide(time.Millisecond, time.Second) {
		t.Fatal("10s buffer must turn re-injection off")
	}
	// 60ms of buffer: below Tth1.
	c.OnSignal(time.Second, wire.QoESignal{CachedFrames: 2, FramerateFPS: 30})
	if !c.Decide(time.Second, 0) {
		t.Fatal("66ms buffer must turn re-injection on")
	}
}

func TestControllerExtrapolation(t *testing.T) {
	c := NewController(Thresholds{Tth1: 100 * time.Millisecond, Tth2: 5 * time.Second})
	// 2s of buffer reported at t=0; middle region vs deliverTime 100ms.
	c.OnSignal(0, wire.QoESignal{CachedFrames: 60, FramerateFPS: 30})
	if got := c.PlaytimeLeft(0); got != 2*time.Second {
		t.Fatalf("Δt at 0 = %v", got)
	}
	// 1.95s later the buffer should be nearly empty.
	if got := c.PlaytimeLeft(1950 * time.Millisecond); got != 50*time.Millisecond {
		t.Fatalf("extrapolated Δt = %v, want 50ms", got)
	}
	if !c.Decide(1950*time.Millisecond, 0) {
		t.Fatal("stale signal must extrapolate into the urgent region")
	}
	// Past exhaustion it clamps at zero.
	if got := c.PlaytimeLeft(10 * time.Second); got != 0 {
		t.Fatalf("Δt clamp = %v", got)
	}
	// A fresh signal restarts the extrapolation: at its own instant it
	// reads as reported.
	c.OnSignal(10*time.Second, wire.QoESignal{CachedFrames: 60, FramerateFPS: 30})
	if got := c.PlaytimeLeft(10 * time.Second); got != 2*time.Second {
		t.Fatalf("Δt at a fresh signal = %v, want 2s", got)
	}
}

func TestControllerStats(t *testing.T) {
	c := NewController(Thresholds{Tth1: time.Second, Tth2: 2 * time.Second})
	c.OnSignal(0, wire.QoESignal{CachedFrames: 300, FramerateFPS: 30}) // 10s
	c.Decide(0, 0)                                                     // off
	c.OnSignal(0, wire.QoESignal{CachedFrames: 3, FramerateFPS: 30})   // 100ms
	c.Decide(0, 0)                                                     // on
	c.Decide(0, 0)                                                     // on
	d, e := c.Stats()
	if d != 3 || e != 2 {
		t.Fatalf("stats d=%d e=%d", d, e)
	}
}

func TestCalibrateThresholds(t *testing.T) {
	// Uniform distribution 0..10s.
	var samples []time.Duration
	for i := 0; i <= 1000; i++ {
		samples = append(samples, time.Duration(i)*10*time.Millisecond)
	}
	th := CalibrateThresholds(samples, 95, 80)
	// th(95): 95% of samples above => 5th percentile = 0.5s.
	if th.Tth1 < 450*time.Millisecond || th.Tth1 > 550*time.Millisecond {
		t.Fatalf("Tth1 = %v, want ~0.5s", th.Tth1)
	}
	// th(80): 20th percentile = 2s.
	if th.Tth2 < 1900*time.Millisecond || th.Tth2 > 2100*time.Millisecond {
		t.Fatalf("Tth2 = %v, want ~2s", th.Tth2)
	}
	if !th.Valid() {
		t.Fatal("calibrated thresholds must be ordered")
	}
}

func TestCalibrateAlwaysOnSetting(t *testing.T) {
	var samples []time.Duration
	for i := 0; i <= 100; i++ {
		samples = append(samples, time.Duration(i)*100*time.Millisecond)
	}
	// (1,1): both thresholds at the 99th percentile — re-injection nearly
	// always on below, i.e. "w/o QoE control" behaviour.
	th := CalibrateThresholds(samples, 1, 1)
	if th.Tth1 != th.Tth2 {
		t.Fatal("(1,1) thresholds should coincide")
	}
	if th.Tth1 < 9*time.Second {
		t.Fatalf("th(1) = %v, want near the top of the distribution", th.Tth1)
	}
}

func TestCostBounds(t *testing.T) {
	// Half the samples below Tth1, all below Tth2.
	samples := []time.Duration{1 * time.Second, 1 * time.Second, 3 * time.Second, 3 * time.Second}
	th := Thresholds{Tth1: 2 * time.Second, Tth2: 4 * time.Second}
	cmin, cmax := CostBounds(samples, th, 0.15)
	if cmin != 0.075 {
		t.Fatalf("cmin = %v", cmin)
	}
	if cmax != 0.15 {
		t.Fatalf("cmax = %v", cmax)
	}
	if a, b := CostBounds(nil, th, 0.15); a != 0 || b != 0 {
		t.Fatal("empty samples")
	}
}

func TestPropertyDecideMonotoneInDt(t *testing.T) {
	// For fixed thresholds and deliver time, enabling must be monotone:
	// if re-injection is ON at some Δt, it is ON at every smaller Δt.
	f := func(t1ms, spanMS uint16, deliverMS uint16) bool {
		th := Thresholds{
			Tth1: time.Duration(t1ms) * time.Millisecond,
			Tth2: time.Duration(uint32(t1ms)+uint32(spanMS)) * time.Millisecond,
		}
		deliver := time.Duration(deliverMS) * time.Millisecond
		lastOn := true // at Δt=0 it must be on (0 < Tth1 or 0 < deliver region)
		for dt := time.Duration(0); dt < 3*time.Second; dt += 7 * time.Millisecond {
			on := th.Decide(dt, deliver)
			if on && !lastOn {
				return false // turned back on as buffer grew: not monotone
			}
			lastOn = on
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCostBoundsOrdered(t *testing.T) {
	f := func(raw []uint16, t1, t2 uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]time.Duration, len(raw))
		for i, v := range raw {
			samples[i] = time.Duration(v) * time.Millisecond
		}
		lo, hi := t1, t2
		if lo > hi {
			lo, hi = hi, lo
		}
		th := Thresholds{Tth1: time.Duration(lo) * time.Millisecond, Tth2: time.Duration(hi) * time.Millisecond}
		cmin, cmax := CostBounds(samples, th, 0.15)
		return cmin <= cmax && cmin >= 0 && cmax <= 0.15+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
