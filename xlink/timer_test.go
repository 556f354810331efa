package xlink

import (
	"sync"
	"testing"
	"time"

	"repro/internal/assert"
	"repro/internal/sim"
)

// Tests for the live Env (DESIGN.md §20): a connection's timers wait in its
// shard's sim.Loop, and the shard's one timer wakes it for a turn that
// advances the loop and runs the timers that came due. Arming costs nothing
// once the loop is warm.

// listenIdle starts a server endpoint that no client dials, on group (nil:
// a private one): its connection arms no timer of its own, so the test's
// arms are the only ones it has.
func listenIdle(t *testing.T, seed int64, group *EventLoopGroup) *Endpoint {
	t.Helper()
	ep, err := Listen("127.0.0.1:0", LiveConfig{Scheme: SchemeXLINK, Seed: seed, Loops: group})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ep.Close)
	return ep
}

// TestLiveTimerStorm arms, cancels and re-arms from several goroutines at
// once, the way connections do — one owner per endpoint, at most one
// pending arm per owner, cancel only before its fn ran — each step an op on
// the owner's endpoint's shard, while the endpoints are closed underneath;
// scripts/check.sh runs it under -race. The four endpoints share one shard
// with a fifth, idle one, so the shard's loop keeps running after the
// Closes. Every fn runs at most once, never before its instant on the wall
// clock and never once its endpoint is closed, and every arm not cancelled
// that came due before its endpoint's Close ran: the shard advances the
// loop to the wall clock after it takes ops from its FIFO and before it
// applies them.
func TestLiveTimerStorm(t *testing.T) {
	const owners, arms = 4, 300
	group := NewEventLoopGroup(1)
	t.Cleanup(func() { group.Close(); group.Wait() })
	keep := listenIdle(t, 70, group)
	var eps [owners]*Endpoint
	for o := range eps {
		eps[o] = listenIdle(t, 71+int64(o), group)
	}
	wall := func(ep *Endpoint) time.Duration { return ep.shard.wall.Now() - ep.env.origin }
	type arm struct {
		owner    int
		at       time.Duration
		runs     int
		early    bool
		closed   bool // ran on a closed endpoint
		cancel   func()
		done     bool // ran or was cancelled
		canceled bool
	}
	var (
		mu        sync.Mutex // onShard runs a step on its caller once the endpoint is closed
		all       []*arm
		ranBefore int // fns run before the Closes, all of them in timer turns
		wg        sync.WaitGroup
		closeAt   = make(chan struct{})
	)
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			ep := eps[o]
			rng := sim.NewRNG(int64(o + 1))
			var pending *arm
			for i := 0; i < arms; i++ {
				if o == 0 && i == arms/2 {
					close(closeAt)
				}
				ep.onShard(func() {
					mu.Lock()
					defer mu.Unlock()
					if ep.closed {
						return // the env is the shard's, and the shard is done with it
					}
					if pending != nil && !pending.done && rng.Intn(2) == 0 {
						pending.cancel()
						pending.done, pending.canceled = true, true
					}
					if pending == nil || pending.done {
						a := &arm{owner: o, at: wall(ep) + time.Duration(rng.Intn(2000))*time.Microsecond}
						a.cancel = ep.env.Schedule(a.at, func(time.Duration) {
							mu.Lock()
							defer mu.Unlock()
							a.runs++
							a.early = a.early || wall(ep) < a.at
							a.closed = a.closed || ep.closed
							a.done = true
							ranBefore++
						})
						all = append(all, a)
						pending = a
					}
				})
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
		}(o)
	}
	<-closeAt
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return ranBefore > 0
	}, "an arm to run in a timer turn")
	var closing [owners]time.Duration
	for o, ep := range eps {
		closing[o] = wall(ep)
		ep.Close()
	}
	wg.Wait()
	// Every arm left is due within 2 ms of the last step; the shard keeps
	// turning for the idle endpoint.
	time.Sleep(10 * time.Millisecond)
	keep.onShard(func() {})
	mu.Lock()
	defer mu.Unlock()
	for i, a := range all {
		if a.runs > 1 || a.early || a.closed {
			t.Fatalf("arm %d: ran %d times, early %v, on a closed endpoint %v", i, a.runs, a.early, a.closed)
		}
		if !a.canceled && a.at <= closing[a.owner] && a.runs == 0 {
			t.Fatalf("arm %d, due %v before the Close at %v, never ran", i, closing[a.owner]-a.at, closing[a.owner])
		}
	}
}

// TestLiveEnvHoldsOneArm: a connection holds at most one pending arm
// (transport.Env), so the live env keeps one, and under xlinkdebug a second
// Schedule while one is pending fails an assertion. The release build
// checks nothing.
func TestLiveEnvHoldsOneArm(t *testing.T) {
	if !assert.Enabled {
		t.Skip("the check is an xlinkdebug assertion")
	}
	ep := listenIdle(t, 75, nil)
	env := &ep.env
	never := func(time.Duration) {}
	var recovered any
	ep.onShard(func() {
		cancel := env.Schedule(env.Now()+time.Hour, never)
		defer cancel()
		defer func() { recovered = recover() }()
		env.Schedule(env.Now()+2*time.Hour, never)
	})
	if recovered == nil {
		t.Fatal("a second arm while one was pending passed the assertion")
	}
}

// TestAllocGateLiveTimerRearm: once the shard's loop is warm, arming a timer
// and cancelling it, or arming one and letting it fire — the shard's timer
// goes off, and the turn it wakes runs the fn — allocates nothing
// (scripts/check.sh runs every TestAllocGate*). Each step is an op built
// once, so posting it allocates nothing either.
func TestAllocGateLiveTimerRearm(t *testing.T) {
	if testing.Short() {
		t.Skip("measures allocations")
	}
	ep := listenIdle(t, 73, nil)
	env := &ep.env
	stepped := make(chan struct{}, 1)
	fired := make(chan struct{}, 1)
	fn := func(time.Duration) { fired <- struct{}{} }
	never := func(time.Duration) {}
	rearmOp := op{kind: opCall, ep: ep, fn: func() {
		env.Schedule(env.Now()+time.Hour, never)()
		stepped <- struct{}{}
	}}
	// Far enough ahead that the turn which arms it ends first.
	fireOp := op{kind: opCall, ep: ep, fn: func() { env.Schedule(env.Now()+200*time.Microsecond, fn) }}
	rearm := func() {
		ep.post(rearmOp)
		<-stepped
	}
	fire := func() {
		ep.post(fireOp)
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
	var pending int
	ep.onShard(func() { pending = env.loop.Pending() })
	if pending != 0 {
		t.Fatalf("%d events left in the loop, want none: every arm was cancelled or ran", pending)
	}
}
