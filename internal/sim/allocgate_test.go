package sim

import (
	"testing"
	"time"
)

// countingReceiver is a Receiver that is not a func: the shape netem.Link
// schedules its deliveries with.
type countingReceiver struct{ fired, sum int }

func (r *countingReceiver) Fire(_ time.Duration, arg int) { r.fired++; r.sum += arg }

// TestAllocGateScheduleFire gates the timer free list (scripts/check.sh runs
// every TestAllocGate*): once the free list is warm, a schedule→fire cycle
// and a schedule→stop cycle must not allocate, whether the event is a plain
// callback or a (receiver, argument) pair. The value-type Timer handle and
// event recycling exist precisely for this.
func TestAllocGateScheduleFire(t *testing.T) {
	l := NewLoop()
	fn := func(time.Duration) {}
	for i := 0; i < 64; i++ { // warm the free list
		l.At(l.Now()+time.Millisecond, fn)
	}
	l.Run(1 << 20)
	if avg := testing.AllocsPerRun(200, func() {
		l.At(l.Now()+time.Millisecond, fn)
		l.Run(1 << 20)
	}); avg != 0 {
		t.Fatalf("schedule→fire allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		tm := l.At(l.Now()+time.Hour, fn)
		tm.Stop()
		l.Run(1 << 20)
	}); avg != 0 {
		t.Fatalf("schedule→stop allocates %.1f/op, want 0", avg)
	}
	r := &countingReceiver{}
	if avg := testing.AllocsPerRun(200, func() {
		l.AtRecv(l.Now()+time.Millisecond, r, 3)
		l.AtRecv(l.Now()+time.Hour, r, 100).Stop()
		l.Run(1 << 20)
	}); avg != 0 {
		t.Fatalf("schedule→fire of a receiver event allocates %.1f/op, want 0", avg)
	}
	if r.fired != 201 || r.sum != 3*201 {
		t.Fatalf("receiver fired %d times with arguments summing to %d, want 201 and %d", r.fired, r.sum, 3*201)
	}
}

// TestAllocGateScheduleCancel gates the timer shape the transport uses
// (transport.SimEnv is Loop.Schedule): once the free list is warm, an arm
// followed by its cancel, and an arm that fires, allocate nothing — the cancel
// function is the node's, bound once. A cancelled arm does not fire, and
// the events around it keep their order.
func TestAllocGateScheduleCancel(t *testing.T) {
	l := NewLoop()
	fired := 0
	fn := func(time.Duration) { fired++ }
	for i := 0; i < 64; i++ { // warm the free list and bind the nodes' cancels
		l.Schedule(l.Now()+time.Millisecond, fn)()
		l.Schedule(l.Now()+time.Millisecond, fn)
	}
	l.Run(1 << 20)
	fired = 0
	if avg := testing.AllocsPerRun(200, func() {
		cancel := l.Schedule(l.Now()+time.Hour, fn)
		l.Schedule(l.Now()+time.Millisecond, fn)
		cancel()
		l.Run(1 << 20)
	}); avg != 0 {
		t.Fatalf("arm→cancel plus arm→fire allocates %.1f/op, want 0", avg)
	}
	if fired != 201 || l.Pending() != 0 {
		t.Fatalf("%d of 201 uncancelled arms fired, %d events left pending", fired, l.Pending())
	}
}
