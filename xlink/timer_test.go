package xlink

import (
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// Tests for the live Env (DESIGN.md §20): a connection's timers wait in its
// endpoint's sim.Loop, and the wall alarm wakes the shard, whose turn advances
// the loop and runs the timers that came due. Arming costs nothing once the
// loop is warm.

// listenIdle starts a server endpoint that no client dials: its connection
// arms no timer of its own, so the test's arms are the only ones in its loop.
func listenIdle(t *testing.T, seed int64) *Endpoint {
	t.Helper()
	ep, err := Listen("127.0.0.1:0", LiveConfig{Scheme: SchemeXLINK, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ep.Close)
	return ep
}

// TestLiveTimerStorm arms, cancels and re-arms from several goroutines at
// once, the way connections do — at most one pending arm per owner, cancel
// only before its fn ran — while the endpoint is closed underneath, and runs
// under -race in scripts/check.sh. The owners never advance the loop, so
// until the Close every fn runs in a shard turn the alarm woke, and one does
// before the Close. Every fn runs at most once and never before its instant
// on the wall clock, and every arm not cancelled that came due before the
// Close ran: Close advances the loop once more, then stops the alarm for
// good.
func TestLiveTimerStorm(t *testing.T) {
	const owners, arms = 4, 300
	ep := listenIdle(t, 71)
	type arm struct {
		at       time.Duration
		runs     int
		early    bool
		late     bool // armed after the Close
		cancel   func()
		done     bool // ran or was cancelled
		canceled bool
	}
	var (
		all       []*arm
		ranBefore int // fns run before the Close, all of them in alarm turns
		wg        sync.WaitGroup
		closeAt   = make(chan struct{})
	)
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			rng := sim.NewRNG(int64(o + 1))
			var pending *arm
			for i := 0; i < arms; i++ {
				if o == 0 && i == arms/2 {
					close(closeAt)
				}
				ep.mu.Lock()
				if pending != nil && !pending.done && rng.Intn(2) == 0 {
					pending.cancel()
					pending.done, pending.canceled = true, true
				}
				if pending == nil || pending.done {
					a := &arm{at: ep.env.wall.Now() + time.Duration(rng.Intn(2000))*time.Microsecond, late: ep.closed}
					a.cancel = ep.env.Schedule(a.at, func(time.Duration) {
						a.runs++
						a.early = a.early || ep.env.wall.Now() < a.at
						a.done = true
						if !ep.closed {
							ranBefore++
						}
					})
					all = append(all, a)
					pending = a
				}
				ep.mu.Unlock()
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
		}(o)
	}
	<-closeAt
	waitFor(t, 5*time.Second, func() bool {
		ep.mu.Lock()
		defer ep.mu.Unlock()
		return ranBefore > 0
	}, "an arm to run in an alarm turn")
	closing := ep.env.wall.Now()
	ep.Close()
	wg.Wait()
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for i, a := range all {
		if a.runs > 1 || a.early {
			t.Fatalf("arm %d: ran %d times, early %v", i, a.runs, a.early)
		}
		if !a.late && !a.canceled && a.at <= closing && a.runs == 0 {
			t.Fatalf("arm %d, due %v before the Close at %v, never ran", i, closing-a.at, closing)
		}
	}
}

// TestAllocGateLiveTimerRearm: once the endpoint's loop is warm, arming a
// timer and cancelling it, or arming one and letting it fire — the alarm
// posts a wake, and the shard turn it wakes runs the fn — allocates nothing
// (scripts/check.sh runs every TestAllocGate*).
func TestAllocGateLiveTimerRearm(t *testing.T) {
	if testing.Short() {
		t.Skip("measures allocations")
	}
	ep := listenIdle(t, 73)
	env := &ep.env
	fired := make(chan struct{}, 1)
	fn := func(time.Duration) { fired <- struct{}{} }
	never := func(time.Duration) {}
	rearm := func() {
		ep.mu.Lock()
		env.Schedule(env.Now()+time.Hour, never)()
		ep.mu.Unlock()
	}
	fire := func() {
		ep.mu.Lock()
		env.Schedule(env.Now(), fn)
		ep.mu.Unlock()
		<-fired
	}
	for i := 0; i < 16; i++ {
		rearm()
		fire()
	}
	if avg := testing.AllocsPerRun(200, rearm); avg != 0 {
		t.Fatalf("arming and cancelling a live timer allocates %.1f", avg)
	}
	if avg := testing.AllocsPerRun(200, fire); avg != 0 {
		t.Fatalf("arming a live timer and letting it fire allocates %.1f", avg)
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if n := env.loop.Pending(); n != 0 {
		t.Fatalf("%d events left in the loop, want none: every arm was cancelled or ran", n)
	}
}
