package abtest

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

func smallPop(day, sessions int) Population {
	return Population{Day: day, Sessions: sessions, Seed: 77}
}

func TestRunPairedArms(t *testing.T) {
	arms := []Arm{
		{Name: "SP", Scheme: core.SchemeSinglePath},
		{Name: "XLINK", Scheme: core.SchemeXLINK},
	}
	res := RunParallel(smallPop(1, 4), arms, 1)
	if len(res) != 2 {
		t.Fatalf("arm results %d", len(res))
	}
	for name, r := range res {
		if r.Sessions != 4 {
			t.Fatalf("%s: sessions %d", name, r.Sessions)
		}
		if r.Completed == 0 {
			t.Fatalf("%s: nothing completed", name)
		}
		if len(r.RCTs) == 0 {
			t.Fatalf("%s: no RCTs", name)
		}
		if r.PlayTime <= 0 {
			t.Fatalf("%s: no play time", name)
		}
		if len(r.BufferLevels) == 0 {
			t.Fatalf("%s: no buffer samples", name)
		}
	}
	if res["SP"].ReinjBytes != 0 {
		t.Fatal("SP must not re-inject")
	}
}

func TestDayVariation(t *testing.T) {
	arms := []Arm{{Name: "SP", Scheme: core.SchemeSinglePath}}
	d1 := RunParallel(smallPop(1, 3), arms, 1)["SP"]
	d2 := RunParallel(smallPop(2, 3), arms, 1)["SP"]
	same := len(d1.RCTs) == len(d2.RCTs)
	if same {
		for i := range d1.RCTs {
			if d1.RCTs[i] != d2.RCTs[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different days must draw different populations")
	}
	// Same day must be reproducible.
	d1b := RunParallel(smallPop(1, 3), arms, 1)["SP"]
	if len(d1.RCTs) != len(d1b.RCTs) {
		t.Fatal("same-day run not reproducible")
	}
	for i := range d1.RCTs {
		if d1.RCTs[i] != d1b.RCTs[i] {
			t.Fatal("same-day run not reproducible")
		}
	}
}

func TestMetricsHelpers(t *testing.T) {
	r := &ArmResult{
		RebufferTime:  time.Second,
		PlayTime:      10 * time.Second,
		DangerSamples: 5,
		TotalSamples:  50,
		StreamBytes:   850,
		ReinjBytes:    150,
	}
	if got := r.RebufferRate(); got != 0.1 {
		t.Fatalf("rebuffer rate %v", got)
	}
	if got := r.CostOverhead(); got != 0.15 {
		t.Fatalf("cost overhead %v", got)
	}
	if got := r.DangerFraction(); got != 0.1 {
		t.Fatalf("danger fraction %v", got)
	}
	var empty ArmResult
	if empty.RebufferRate() != 0 || empty.CostOverhead() != 0 || empty.DangerFraction() != 0 {
		t.Fatal("empty results should be zero")
	}
}

func TestImprovement(t *testing.T) {
	base := &ArmResult{RebufferTime: 2 * time.Second, PlayTime: 10 * time.Second}
	arm := &ArmResult{RebufferTime: time.Second, PlayTime: 10 * time.Second}
	got := Improvement(base, arm, func(r *ArmResult) float64 { return r.RebufferRate() })
	if got != 50 {
		t.Fatalf("improvement %v", got)
	}
}

// TestRunParallelMatchesRun pins the scheduler's contract: whatever the
// worker count — one (no goroutine), two, three, eight, or more
// workers than session-arms — the results deep-equal those of a plain
// sequential pass that draws each session whole and plays its arms in order,
// so handing out the largest videos first and drawing the networks on the
// workers change nothing. Run under -race this also proves the workers'
// slot-per-job writes are published by the WaitGroup join and that two arms
// of one session may read its traces from different goroutines.
func TestRunParallelMatchesRun(t *testing.T) {
	arms := []Arm{
		{Name: "SP", Scheme: core.SchemeSinglePath},
		{Name: "XLINK", Scheme: core.SchemeXLINK},
	}
	for _, pop := range []Population{smallPop(2, 5), smallPop(3, 1)} {
		want := sequentialRun(pop, arms)
		for _, workers := range []int{1, 2, 3, 8} {
			if diff := armResultsDiffer(want, RunParallel(pop, arms, workers)); diff != "" {
				t.Errorf("%d sessions on %d workers: %s", pop.Sessions, workers, diff)
			}
		}
	}
}

// sequentialRun is the reference the scheduler must reproduce: sessions in
// order, each drawn whole on one goroutine, its arms played and folded in
// order.
func sequentialRun(pop Population, arms []Arm) map[string]*ArmResult {
	results := make(map[string]*ArmResult, len(arms))
	for _, arm := range arms {
		results[arm.Name] = &ArmResult{Name: arm.Name}
	}
	base := sim.NewRNG(pop.Seed).Fork(fmt.Sprintf("day-%d", pop.Day))
	for i := 0; i < pop.Sessions; i++ {
		s := &session{rng: base.Fork(fmt.Sprintf("session-%d", i))}
		s.class = drawClass(s.rng)
		s.v = drawVideo(s.rng)
		s.drawRest()
		for _, arm := range arms {
			if res, err := core.RunSession(s.config(arm)); err == nil {
				accumulate(results[arm.Name], s.v, res)
			}
		}
	}
	return results
}

// armResultsDiffer describes the first difference between two result sets,
// or returns "" if they are deep-equal (registries compared by exposition).
func armResultsDiffer(want, got map[string]*ArmResult) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d arms, want %d", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if g == nil {
			return name + " missing"
		}
		wc, gc := *w, *g
		var wd, gd strings.Builder
		wc.Registry.Dump(&wd)
		gc.Registry.Dump(&gd)
		if wd.String() != gd.String() {
			return name + ": registries differ"
		}
		wc.Registry, gc.Registry = nil, nil
		if !reflect.DeepEqual(wc, gc) {
			return fmt.Sprintf("%s: %+v\nwant %+v", name, gc, wc)
		}
	}
	return ""
}

// TestBufferSamplesStopAtTheFinish: a session keeps ticking until its
// deadline, 30 s past the video's duration, and the player's buffer is empty
// from the finish on. On day 1 of seed 20210823 (20 sessions, SP) those
// post-finish zeros were 11 941 of the 11 961 samples below 50 ms — a danger
// fraction of 0.214 that counted samples, not buffer grazes. Only samples
// between start-up + grace and the finish instant count: about 0.0004.
func TestBufferSamplesStopAtTheFinish(t *testing.T) {
	r := RunParallel(Population{Day: 1, Sessions: 20, Seed: 20210823}, []Arm{{Name: "SP", Scheme: core.SchemeSinglePath}}, 1)["SP"]
	if r.Completed == 0 || r.TotalSamples < 40000 || len(r.BufferLevels) != r.TotalSamples {
		t.Fatalf("%d completed, %d samples, %d buffer levels", r.Completed, r.TotalSamples, len(r.BufferLevels))
	}
	if f := r.DangerFraction(); f > 0.001 {
		t.Fatalf("danger fraction %.4f (%d of %d samples), want about 0.0004: post-finish samples are counted",
			f, r.DangerSamples, r.TotalSamples)
	}
}
