package sim

import (
	"container/heap"
	"time"
)

// Event is a callback scheduled to run at a virtual time instant.
type Event func(now time.Duration)

// Receiver is what a scheduled event is delivered to: Fire runs at the
// event's instant with the argument it was scheduled with. A component that
// schedules one event per unit of work (a netem.Link: one per packet)
// implements it once and passes an index as arg, so scheduling builds no
// closure.
type Receiver interface {
	Fire(now time.Duration, arg int)
}

// Fire implements Receiver, so a plain callback is scheduled and dispatched
// the same way as any other receiver (a func value is pointer-shaped: putting
// it in the interface does not allocate).
//
// xlinkvet:hot
func (fn Event) Fire(now time.Duration, _ int) { fn(now) }

// scheduledEvent is a heap node. Nodes are recycled through Loop.free once
// they fire, are collected dead, or are swept by compaction; gen is bumped
// on every recycle so stale Timer handles can detect reuse.
type scheduledEvent struct {
	at   time.Duration
	seq  uint64 // tie-breaker: FIFO among events at the same instant
	gen  uint64
	to   Receiver
	arg  int
	dead bool
	idx  int
}

// Timer is a handle to a scheduled event that can be cancelled. The zero
// Timer is valid and behaves as already-fired. Timers are values; copying
// one copies the handle, and all copies observe the same event.
type Timer struct {
	ev   *scheduledEvent
	gen  uint64
	loop *Loop
}

// live reports whether the handle still refers to a pending event: the node
// must not have been recycled out from under us (gen), stopped (dead), or
// popped (idx).
func (t Timer) live() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.dead && t.ev.idx >= 0
}

// Stop cancels the timer. It is a no-op if the event already fired or was
// already stopped. It reports whether the event was still pending.
//
// xlinkvet:hot
func (t Timer) Stop() bool {
	if !t.live() {
		return false
	}
	t.ev.dead = true
	t.loop.dead++
	t.loop.maybeCompact()
	return true
}

// Pending reports whether the event is still scheduled to fire.
func (t Timer) Pending() bool { return t.live() }

// When returns the virtual time the event will fire at, or 0 if it is no
// longer pending.
func (t Timer) When() time.Duration {
	if !t.live() {
		return 0
	}
	return t.ev.at
}

type eventHeap []*scheduledEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*scheduledEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

// Loop is a single-threaded discrete-event simulation loop with its own
// virtual clock. It is not safe for concurrent use; all simulated components
// must be driven from loop callbacks.
type Loop struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	fired  uint64

	free        []*scheduledEvent // recycled nodes, capped at maxFree
	dead        int               // stopped events still in the heap
	compactions uint64
}

// maxFree bounds the recycling pool; beyond it, nodes are left to the GC.
const maxFree = 256

// compactMinDead is the floor below which stopped events are left for their
// deadline pop to collect; sweeping tiny heaps isn't worth the work.
const compactMinDead = 64

// NewLoop returns an empty loop at virtual time zero.
func NewLoop() *Loop {
	return &Loop{}
}

// Now implements Clock.
func (l *Loop) Now() time.Duration { return l.now }

// Fired returns the number of events executed so far.
func (l *Loop) Fired() uint64 { return l.fired }

// Pending returns the number of events still scheduled (including stopped
// timers not yet collected).
func (l *Loop) Pending() int { return len(l.events) }

// DeadPending returns the number of stopped events still occupying the heap.
// Bounded by construction: compaction sweeps them once they exceed half the
// heap (past compactMinDead).
func (l *Loop) DeadPending() int { return l.dead }

// Compactions returns how many dead-event sweeps have run.
func (l *Loop) Compactions() uint64 { return l.compactions }

// At schedules fn to run at the absolute virtual time at. Events scheduled
// in the past run at the current time, never rewinding the clock.
//
// xlinkvet:hot
func (l *Loop) At(at time.Duration, fn Event) Timer {
	return l.AtRecv(at, fn, 0)
}

// AtRecv schedules to.Fire(now, arg) at the absolute virtual time at, with
// At's clamping and FIFO order among events at one instant.
//
// xlinkvet:hot
func (l *Loop) AtRecv(at time.Duration, to Receiver, arg int) Timer {
	if at < l.now {
		at = l.now
	}
	var ev *scheduledEvent
	if n := len(l.free); n > 0 {
		ev = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		//xlinkvet:ignore hotalloc — free-list refill: amortized by recycle(), measured by TestAllocGateScheduleFire
		ev = &scheduledEvent{}
	}
	ev.at, ev.seq, ev.to, ev.arg, ev.dead = at, l.seq, to, arg, false
	l.seq++
	heap.Push(&l.events, ev)
	return Timer{ev: ev, gen: ev.gen, loop: l}
}

// After schedules fn to run d from now.
//
// xlinkvet:hot
func (l *Loop) After(d time.Duration, fn Event) Timer {
	return l.At(l.now+d, fn)
}

// recycle returns a popped or swept node to the free pool, invalidating any
// outstanding Timer handles and releasing the event's receiver.
//
// xlinkvet:hot
func (l *Loop) recycle(ev *scheduledEvent) {
	ev.gen++
	ev.to = nil
	if len(l.free) < maxFree {
		l.free = append(l.free, ev)
	}
}

// maybeCompact sweeps stopped events out of the heap once they outnumber
// the live ones. Heap layout does not affect pop order — Less is a total
// order on (at, seq) — so sweeping preserves event-loop determinism.
//
// xlinkvet:hot
func (l *Loop) maybeCompact() {
	if l.dead <= compactMinDead || l.dead*2 <= len(l.events) {
		return
	}
	live := l.events[:0]
	for _, ev := range l.events {
		if ev.dead {
			ev.idx = -1
			l.recycle(ev)
		} else {
			live = append(live, ev)
		}
	}
	for i := len(live); i < len(l.events); i++ {
		l.events[i] = nil
	}
	l.events = live
	for i, ev := range l.events {
		ev.idx = i
	}
	heap.Init(&l.events)
	l.dead = 0
	l.compactions++
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
//
// xlinkvet:hot
func (l *Loop) Step() bool {
	for len(l.events) > 0 {
		ev := heap.Pop(&l.events).(*scheduledEvent)
		if ev.dead {
			l.dead--
			l.recycle(ev)
			continue
		}
		l.now = ev.at
		l.fired++
		to, arg := ev.to, ev.arg
		l.recycle(ev)
		to.Fire(l.now, arg)
		return true
	}
	return false
}

// RunUntil executes events until the clock would pass deadline or no events
// remain. Events at exactly deadline are executed. The clock finishes at
// deadline if it was reached.
func (l *Loop) RunUntil(deadline time.Duration) {
	for len(l.events) > 0 {
		// Peek.
		next := l.events[0]
		if next.dead {
			l.dead--
			l.recycle(heap.Pop(&l.events).(*scheduledEvent))
			continue
		}
		if next.at > deadline {
			break
		}
		l.Step()
	}
	if l.now < deadline {
		l.now = deadline
	}
}

// Run executes events until none remain or maxEvents is hit (0 = unlimited).
// It returns the number of events executed in this call.
func (l *Loop) Run(maxEvents uint64) uint64 {
	var n uint64
	for l.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			break
		}
	}
	return n
}
