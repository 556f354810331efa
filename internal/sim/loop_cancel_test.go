package sim

import (
	"sort"
	"testing"
	"time"
)

// Tests for the event heap's in-place cancel: Stop takes its event out of
// the heap at once, so nothing stopped waits there for its deadline, and the
// pop order stays the total order on (at, seq) whatever was taken out.

// TestStopRemovesEventInPlace drives the transport's rearm pattern — schedule
// a far-future timer, cancel it, repeat — and requires every Stop to shrink
// the heap at once: the heap holds exactly the events still to fire.
func TestStopRemovesEventInPlace(t *testing.T) {
	l := NewLoop()
	fired := 0
	for i := 0; i < 10; i++ {
		l.After(time.Hour, func(time.Duration) { fired++ })
	}
	for i := 0; i < 5000; i++ {
		tm := l.After(time.Duration(i%97)*time.Minute, func(time.Duration) { t.Error("stopped timer fired") })
		if l.Pending() != 11 {
			t.Fatalf("%d events pending after scheduling the 11th", l.Pending())
		}
		if !tm.Stop() {
			t.Fatalf("Stop() = false on a pending timer (iteration %d)", i)
		}
		if l.Pending() != 10 || tm.Pending() || tm.Stop() {
			t.Fatalf("after Stop: %d pending, handle pending %v", l.Pending(), tm.Pending())
		}
	}
	l.RunUntil(2 * time.Hour)
	if fired != 10 || l.Pending() != 0 {
		t.Errorf("live events fired = %d, %d left; want 10 and 0", fired, l.Pending())
	}
}

// TestCancelMatchesSortedReference schedules and stops events at random —
// many at the same instant, some stopped from inside a firing event, some
// scheduled while the loop runs — and requires the fire order to be the
// surviving events sorted by (at, seq), the order a full sort of the
// schedule gives, and When to report each pending event's instant.
func TestCancelMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := NewRNG(seed)
		l := NewLoop()
		type sched struct {
			at      time.Duration
			seq     int
			tm      Timer
			stopped bool
		}
		var all []*sched
		var got []int
		var schedule func(at time.Duration)
		schedule = func(at time.Duration) {
			s := &sched{at: max(at, l.Now()), seq: len(all)}
			all = append(all, s)
			s.tm = l.At(at, func(now time.Duration) {
				got = append(got, s.seq)
				if now != s.at {
					t.Fatalf("seed %d: event %d fired at %v, scheduled for %v", seed, s.seq, now, s.at)
				}
				// Now and then stop another pending event or schedule one.
				if k := rng.Intn(len(all)); rng.Intn(3) == 0 && !all[k].stopped && all[k].tm.Pending() {
					all[k].stopped = all[k].tm.Stop()
				}
				if rng.Intn(4) == 0 && len(all) < 2000 {
					schedule(now + time.Duration(rng.Intn(20))*time.Millisecond)
				}
			})
		}
		for i := 0; i < 600; i++ {
			schedule(time.Duration(rng.Intn(50)) * time.Millisecond)
			if k := rng.Intn(len(all)); rng.Intn(3) == 0 && !all[k].stopped {
				all[k].stopped = all[k].tm.Stop()
			}
		}
		for _, s := range all {
			if !s.stopped && s.tm.When() != s.at {
				t.Fatalf("seed %d: When() = %v for an event at %v", seed, s.tm.When(), s.at)
			}
		}
		l.Run(0)

		var want []*sched
		for _, s := range all {
			if !s.stopped {
				want = append(want, s)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			return want[i].at < want[j].at || want[i].at == want[j].at && want[i].seq < want[j].seq
		})
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i].seq {
				t.Fatalf("seed %d: fire order diverged at %d: got event %d, want %d", seed, i, got[i], want[i].seq)
			}
		}
	}
}

// TestTimerHandleSurvivesReuse checks the generation guard: once a node is
// recycled and reused for a new event, a stale handle must not cancel or
// observe the new tenant.
func TestTimerHandleSurvivesReuse(t *testing.T) {
	l := NewLoop()
	fired := false
	stale := l.After(time.Millisecond, func(time.Duration) {})
	l.Step() // fires and recycles the node
	fresh := l.After(time.Millisecond, func(time.Duration) { fired = true })
	if stale.Pending() {
		t.Error("stale handle reports pending after node reuse")
	}
	if stale.Stop() {
		t.Error("stale handle stopped the reused node's new event")
	}
	if !fresh.Pending() {
		t.Fatal("fresh timer not pending")
	}
	l.Step()
	if !fired {
		t.Error("new event was cancelled through a stale handle")
	}
	if stale.When() != 0 || fresh.When() != 0 {
		t.Error("When() nonzero on dead handles")
	}
}

// TestStopChurnDoesNotAllocate pins node recycling: steady-state
// schedule/stop/fire cycles must reuse pooled nodes rather than allocate
// (asserted without -race, as the TestAllocGate* gates are).
func TestStopChurnDoesNotAllocate(t *testing.T) {
	l := NewLoop()
	n := 0
	fn := func(time.Duration) { n++ }
	// Warm the node pool and the heap's backing array.
	for i := 0; i < 100; i++ {
		l.After(time.Millisecond, fn)
		l.After(time.Hour, fn).Stop()
		l.Step()
	}
	allocs := testing.AllocsPerRun(200, func() {
		l.After(time.Millisecond, fn)
		l.After(time.Hour, fn).Stop()
		l.Step()
	})
	if allocs > 0 && !raceEnabled {
		t.Errorf("schedule/stop/fire churn allocates %v allocs/op, want 0", allocs)
	}
}
