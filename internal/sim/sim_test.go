package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestLoopOrdering(t *testing.T) {
	l := NewLoop()
	var order []int
	l.After(30*time.Millisecond, func(time.Duration) { order = append(order, 3) })
	l.After(10*time.Millisecond, func(time.Duration) { order = append(order, 1) })
	l.After(20*time.Millisecond, func(time.Duration) { order = append(order, 2) })
	l.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if l.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", l.Now())
	}
}

func TestLoopFIFOAtSameInstant(t *testing.T) {
	l := NewLoop()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		l.At(5*time.Millisecond, func(time.Duration) { order = append(order, i) })
	}
	l.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestLoopNestedScheduling(t *testing.T) {
	l := NewLoop()
	var fired []time.Duration
	l.After(time.Millisecond, func(now time.Duration) {
		fired = append(fired, now)
		l.After(time.Millisecond, func(now time.Duration) {
			fired = append(fired, now)
		})
	})
	l.Run(0)
	if len(fired) != 2 || fired[0] != time.Millisecond || fired[1] != 2*time.Millisecond {
		t.Fatalf("nested scheduling broken: %v", fired)
	}
}

func TestLoopPastEventRunsNow(t *testing.T) {
	l := NewLoop()
	l.After(10*time.Millisecond, func(time.Duration) {})
	l.Step()
	var at time.Duration
	l.At(time.Millisecond, func(now time.Duration) { at = now }) // in the past
	l.Step()
	if at != 10*time.Millisecond {
		t.Fatalf("past event ran at %v, want clamped to 10ms", at)
	}
}

func TestTimerStop(t *testing.T) {
	l := NewLoop()
	fired := false
	timer := l.After(time.Millisecond, func(time.Duration) { fired = true })
	if !timer.Pending() {
		t.Fatal("timer should be pending")
	}
	if !timer.Stop() {
		t.Fatal("Stop should report true for pending timer")
	}
	if timer.Stop() {
		t.Fatal("second Stop should report false")
	}
	l.Run(0)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestRunUntil(t *testing.T) {
	l := NewLoop()
	var n int
	for i := 1; i <= 10; i++ {
		l.At(time.Duration(i)*time.Second, func(time.Duration) { n++ })
	}
	l.RunUntil(5 * time.Second)
	if n != 5 {
		t.Fatalf("fired %d events, want 5", n)
	}
	if l.Now() != 5*time.Second {
		t.Fatalf("clock = %v, want 5s", l.Now())
	}
	if at, ok := l.Next(); !ok || at != 6*time.Second {
		t.Fatalf("Next() = %v, %v; want 6s, true", at, ok)
	}
	l.RunUntil(20 * time.Second)
	if n != 10 {
		t.Fatalf("fired %d events, want 10", n)
	}
	if l.Now() != 20*time.Second {
		t.Fatalf("clock = %v, want 20s (advance past last event)", l.Now())
	}
	if _, ok := l.Next(); ok {
		t.Fatal("Next() reports a pending event on an empty loop")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce same stream")
		}
	}
	c, d := NewRNG(42).Fork("x"), NewRNG(42).Fork("x")
	for i := 0; i < 100; i++ {
		if c.Float64() != d.Float64() {
			t.Fatal("forked streams with same label must match")
		}
	}
	e, f := NewRNG(42).Fork("x"), NewRNG(42).Fork("y")
	same := true
	for i := 0; i < 16; i++ {
		if e.Int63() != f.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("forks with different labels should diverge")
	}
}

func TestRNGLogNormalMedian(t *testing.T) {
	g := NewRNG(7)
	const median = 44.0
	var above int
	const n = 20000
	for i := 0; i < n; i++ {
		if g.LogNormal(median, 0.5) > median {
			above++
		}
	}
	frac := float64(above) / n
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("log-normal median off: %.3f of samples above the median parameter", frac)
	}
}

func TestRNGBoolEdges(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 50; i++ {
		if g.Bool(0) {
			t.Fatal("Bool(0) must be false")
		}
		if !g.Bool(1) {
			t.Fatal("Bool(1) must be true")
		}
	}
}

func TestPropertyEventTimesNeverDecrease(t *testing.T) {
	f := func(delays []uint16) bool {
		l := NewLoop()
		var last time.Duration
		ok := true
		for _, d := range delays {
			l.After(time.Duration(d)*time.Millisecond, func(now time.Duration) {
				if now < last {
					ok = false
				}
				last = now
			})
		}
		l.Run(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
