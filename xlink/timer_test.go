package xlink

import (
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// Tests for the live Env's recycled timers (DESIGN.md §20): a timer serves
// arm after arm, a callback left over from a cancelled arm never runs a newer
// one early, and arming costs nothing once the free list is warm.

// TestLiveTimerStaleFireWaitsForNewerArm forces the stale path: an arm's
// callback has started and is blocked on the endpoint lock when the arm is
// cancelled and the same timer re-armed for later. The stale callback must
// neither run the cancelled fn nor the newer one before its instant.
func TestLiveTimerStaleFireWaitsForNewerArm(t *testing.T) {
	ep := newEndpoint(nil)
	env := ep.env
	ran := make(chan time.Duration, 2)
	var first, second int

	ep.mu.Lock()
	cancel := env.Schedule(env.Now()+time.Millisecond, func(time.Duration) { first++ })
	time.Sleep(20 * time.Millisecond) // the callback starts and waits for the lock
	cancel()
	lt := ep.timerFree[0]
	at := env.Now() + 30*time.Millisecond
	env.Schedule(at, func(now time.Duration) { second++; ran <- now })
	if len(ep.timerFree) != 0 || lt.fn == nil {
		t.Fatal("the re-arm did not take the freed timer")
	}
	ep.mu.Unlock()

	select {
	case now := <-ran:
		if now < at {
			t.Fatalf("newer arm ran at %v, before its instant %v", now, at)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("newer arm never ran")
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if first != 0 || second != 1 || len(ep.timerFree) != 1 || ep.timerFree[0] != lt {
		t.Fatalf("cancelled fn ran %d times, newer %d times, %d timers free; want 0, 1 and the one timer back", first, second, len(ep.timerFree))
	}
}

// TestLiveTimerStorm arms, cancels and re-arms from several goroutines at
// once, the way connections do — at most one pending arm per owner, cancel
// only before its fn ran — while the endpoint is closed underneath, and runs
// under -race in scripts/check.sh. Every fn runs at most once and never
// before its instant, and every arm not cancelled runs.
func TestLiveTimerStorm(t *testing.T) {
	const owners, arms = 4, 300
	ep := newEndpoint(nil)
	env := ep.env
	type arm struct {
		at     time.Duration
		runs   int
		early  bool
		cancel func()
		done   bool // ran or was cancelled
	}
	var (
		all     []*arm
		wg      sync.WaitGroup
		closeAt = make(chan struct{})
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
					pending.done = true
				}
				if pending == nil || pending.done {
					a := &arm{at: env.Now() + time.Duration(rng.Intn(2000))*time.Microsecond}
					a.cancel = env.Schedule(a.at, func(now time.Duration) {
						a.runs++
						a.early = a.early || now < a.at
						a.done = true
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
	ep.Close()
	wg.Wait()
	waitFor(t, 5*time.Second, func() bool {
		ep.mu.Lock()
		defer ep.mu.Unlock()
		for _, a := range all {
			if !a.done {
				return false
			}
		}
		return true
	}, "every arm to run or be cancelled")
	time.Sleep(5 * time.Millisecond) // let stale callbacks drain
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ran := 0
	for i, a := range all {
		if a.runs > 1 || a.early {
			t.Fatalf("arm %d: ran %d times, early %v", i, a.runs, a.early)
		}
		ran += a.runs
	}
	if ran == 0 || len(ep.timerFree) > owners {
		t.Fatalf("%d of %d arms ran; %d timers on the free list for %d owners", ran, len(all), len(ep.timerFree), owners)
	}
}

// TestAllocGateLiveTimerRearm: once the endpoint's free list is warm, arming a
// timer and cancelling it, or arming one and letting it fire, allocates
// nothing (scripts/check.sh runs every TestAllocGate*).
func TestAllocGateLiveTimerRearm(t *testing.T) {
	if testing.Short() {
		t.Skip("measures allocations")
	}
	ep := newEndpoint(nil)
	env := ep.env
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
	if len(ep.timerFree) != 1 {
		t.Fatalf("%d timers on the free list, want the one all arms shared", len(ep.timerFree))
	}
}
