package qoe

import (
	"testing"
	"time"

	"repro/internal/wire"
)

func newRC() *RedundancyController {
	ctrl := NewController(Thresholds{Tth1: 100 * time.Millisecond, Tth2: time.Second})
	return NewRedundancyController(ctrl)
}

// signal puts dt seconds of buffered video into the wrapped controller.
func signal(r *RedundancyController, now time.Duration, dt time.Duration) {
	frames := uint64(dt / (time.Second / 30))
	r.ctrl.OnSignal(now, wire.QoESignal{CachedFrames: frames, FramerateFPS: 30})
}

func TestPlanFECRegions(t *testing.T) {
	r := newRC()

	// Ample buffer (dt > Tth2): never protect, whatever the loss.
	signal(r, 0, 10*time.Second)
	if on, _ := r.PlanFEC(0, 200*time.Millisecond, 0.10, 8); on {
		t.Fatal("10s of buffer must not protect")
	}

	// Clean paths (loss < MinLossRate): never protect, whatever the buffer.
	signal(r, 0, 500*time.Millisecond)
	if on, _ := r.PlanFEC(0, 200*time.Millisecond, 0.001, 8); on {
		t.Fatal("0.1% loss must not protect")
	}

	// Middle region with real loss: protect, loss-proportional repairs
	// with headroom — ceil(8 * 0.05 * 1.5) = 1.
	on, n := r.PlanFEC(0, 200*time.Millisecond, 0.05, 8)
	if !on || n != 1 {
		t.Fatalf("middle region: got (%v, %d), want (true, 1)", on, n)
	}

	// Critically low buffer (dt < Tth1): one extra repair on top.
	signal(r, 0, 50*time.Millisecond)
	on, n = r.PlanFEC(0, 200*time.Millisecond, 0.05, 8)
	if !on || n != 2 {
		t.Fatalf("low buffer: got (%v, %d), want (true, 2)", on, n)
	}
}

func TestPlanFECClampsToMaxRepairs(t *testing.T) {
	r := newRC()
	signal(r, 0, 50*time.Millisecond) // low buffer: +1 regime
	// ceil(64 * 0.25 * 1.5) = 24, +1, clamped to 4.
	on, n := r.PlanFEC(0, 200*time.Millisecond, 0.25, 64)
	if !on || n != 4 {
		t.Fatalf("got (%v, %d), want (true, 4)", on, n)
	}
}

func TestPlanFECStartupProtects(t *testing.T) {
	// No QoE feedback yet: Δt reads 0, the most urgent state — startup is
	// exactly when a stall is costliest, so FEC is on with the +1 bonus.
	r := newRC()
	on, n := r.PlanFEC(0, 200*time.Millisecond, 0.02, 8)
	if !on || n < 2 {
		t.Fatalf("startup: got (%v, %d), want protection with the low-buffer bonus", on, n)
	}
}

func TestPlanFECHeadroomScalesRepairs(t *testing.T) {
	r := newRC()
	signal(r, 0, 500*time.Millisecond)
	// The bare loss share would be ceil(16 * 0.10) = 2; the headroom makes
	// it ceil(16 * 0.10 * 1.5) = 3.
	if _, n := r.PlanFEC(0, 200*time.Millisecond, 0.10, 16); n != 3 {
		t.Fatalf("headroom: %d repairs, want 3", n)
	}
}

func TestRedundancyStats(t *testing.T) {
	r := newRC()
	signal(r, 0, 10*time.Second)
	r.PlanFEC(0, 0, 0.05, 8) // off: ample buffer
	signal(r, 0, 500*time.Millisecond)
	r.PlanFEC(0, 0, 0.05, 8) // on
	r.PlanFEC(0, 0, 0.05, 8) // on
	dec, prot := r.Stats()
	if dec != 3 || prot != 2 {
		t.Fatalf("stats = (%d, %d), want (3, 2)", dec, prot)
	}
	if dec, prot := newRC().Stats(); dec != 0 || prot != 0 {
		t.Fatalf("fresh controller stats = (%d, %d), want (0, 0)", dec, prot)
	}
}
