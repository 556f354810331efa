package sim

import (
	"sort"
	"sync"
	"testing"
	"time"
)

// orderRecorder is a Receiver that records the argument of every event it
// is delivered, in delivery order.
type orderRecorder struct{ got []int }

func (r *orderRecorder) Fire(_ time.Duration, arg int) { r.got = append(r.got, arg) }

// TestLoopsOnTwoGoroutinesShareTheNodePool: loops on two goroutines, as
// fleet workers run them, one loop per round as one per session, take their
// event nodes from and give them back to the same pool. Each round schedules
// events through At, AtRecv and Schedule, stops or cancels some, and runs
// the loop dry: every surviving event fires exactly once, in (at, seq)
// order, and no stopped one fires. Under -race this is also the check that
// a node, and the cancel it binds, goes from one goroutine to the other
// without a data race.
func TestLoopsOnTwoGoroutinesShareTheNodePool(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := NewRNG(int64(g) + 1)
			for round := 0; round < 40; round++ {
				l := NewLoop()
				rec := &orderRecorder{}
				type sched struct {
					at      time.Duration
					stopped bool
				}
				var all []sched
				for i := 0; i < 300; i++ {
					at := time.Duration(rng.Intn(40)) * time.Millisecond
					all = append(all, sched{at: at})
					switch i % 3 {
					case 0:
						tm := l.At(at, func(time.Duration) { rec.got = append(rec.got, i) })
						if rng.Intn(4) == 0 {
							all[i].stopped = tm.Stop()
						}
					case 1:
						tm := l.AtRecv(at, rec, i)
						if rng.Intn(4) == 0 {
							all[i].stopped = tm.Stop()
						}
					default:
						cancel := l.Schedule(at, func(time.Duration) { rec.got = append(rec.got, i) })
						if rng.Intn(4) == 0 {
							cancel()
							all[i].stopped = true
						}
					}
				}
				l.Run(0)
				var want []int
				for i, s := range all {
					if !s.stopped {
						want = append(want, i)
					}
				}
				// Scheduling order is seq order, so a stable sort by instant
				// is the (at, seq) order.
				sort.SliceStable(want, func(a, b int) bool { return all[want[a]].at < all[want[b]].at })
				if len(rec.got) != len(want) {
					t.Errorf("goroutine %d round %d: %d events fired, want %d", g, round, len(rec.got), len(want))
					return
				}
				for k := range want {
					if rec.got[k] != want[k] {
						t.Errorf("goroutine %d round %d: fire %d was event %d, want %d", g, round, k, rec.got[k], want[k])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestStaleTimerLeavesTheNodesNextLoopAlone: a node that fired on one loop
// goes back to the pool and may next serve another loop. A Timer kept from
// the first loop then reports not pending and its Stop leaves the other
// loop's event alone; a Schedule cancel, which belongs to the node, cancels
// on whichever loop the node serves now.
func TestStaleTimerLeavesTheNodesNextLoopAlone(t *testing.T) {
	// The pool is per-P and, under the race detector, drops a quarter of
	// what it is given, so a released node is not sure to be the next one
	// taken; the exchange repeats until it is.
	for round := 0; ; round++ {
		if round == 100 {
			t.Fatal("no node ever went from one loop to the other")
		}
		a, b := NewLoop(), NewLoop()
		stale := a.After(time.Millisecond, func(time.Duration) {})
		a.Step()
		fired := false
		fresh := b.After(time.Millisecond, func(time.Duration) { fired = true })
		if fresh.ev != stale.ev {
			continue
		}
		if stale.Pending() || stale.Stop() || stale.When() != 0 {
			t.Fatal("a stale timer observed or stopped the event its node serves on another loop")
		}
		if !fresh.Pending() || fresh.When() != time.Millisecond || b.Pending() != 1 || a.Pending() != 0 {
			t.Fatalf("after the stale Stop: fresh pending %v at %v, loops hold %d and %d events", fresh.Pending(), fresh.When(), a.Pending(), b.Pending())
		}
		b.Step()
		if !fired {
			t.Fatal("the other loop's event did not fire")
		}
		break
	}
	for round := 0; ; round++ {
		if round == 100 {
			t.Fatal("no cancelled node ever went from one loop to the other")
		}
		a, b := NewLoop(), NewLoop()
		first := a.Schedule(time.Second, func(time.Duration) { t.Fatal("cancelled event fired") })
		node := a.heap[0].ev
		first()
		second := b.Schedule(time.Second, func(time.Duration) { t.Fatal("cancelled event fired") })
		if b.heap[0].ev != node {
			continue
		}
		a.After(time.Second, func(time.Duration) {}) // each loop holds an event of its own
		b.After(2*time.Second, func(time.Duration) {})
		second()
		if a.Pending() != 1 || b.Pending() != 1 {
			t.Fatalf("after the cancel on b the loops hold %d and %d events, want 1 and 1", a.Pending(), b.Pending())
		}
		if at, _ := b.Next(); at != 2*time.Second {
			t.Fatalf("b's remaining event is at %v, want 2s", at)
		}
		a.Run(0)
		b.Run(0)
		return
	}
}
