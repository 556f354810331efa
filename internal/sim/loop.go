package sim

import (
	"sync"
	"time"

	"repro/internal/assert"
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
func (fn Event) Fire(now time.Duration, _ int) { fn(now) }

// scheduledEvent is what a pending event delivers, and where its heap entry
// is. Nodes go back to nodePool once they fire or are stopped; gen is bumped
// on every recycle so stale Timer handles can detect reuse, whichever loop
// the node serves next.
type scheduledEvent struct {
	gen  uint64
	to   Receiver
	arg  int
	loop *Loop // the loop whose heap holds the event; nil once recycled
	idx  int   // the event's entry in loop.heap
	// cancel is what Schedule hands out for this node, bound the first time
	// the node served such an arm and reused for every later one, on any loop.
	cancel func()
}

// nodePool holds the event nodes of every loop in the process (DESIGN.md
// §19's pool rule): a session's loop starts with the nodes, and their bound
// cancels, that finished sessions gave back, and an idle loop holds none.
var nodePool sync.Pool

// getNode returns an unused node, reused if the pool has one.
func getNode() *scheduledEvent {
	if ev, ok := nodePool.Get().(*scheduledEvent); ok {
		return ev
	}
	return &scheduledEvent{}
}

// heapEntry is one pending event in the heap, with the key it is ordered by
// held inline, so that sifting compares values and follows no pointer.
type heapEntry struct {
	at  time.Duration
	seq uint64 // tie-breaker: FIFO among events at the same instant
	ev  *scheduledEvent
}

// before is the heap order, a total order on (at, seq).
func (e heapEntry) before(o heapEntry) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// Timer is a handle to a scheduled event that can be cancelled. The zero
// Timer is valid and behaves as already-fired. Timers are values; copying
// one copies the handle, and all copies observe the same event.
//
// Once the event fired or was stopped, its node is back in the process-wide
// pool, and a loop on another goroutine may take it. Stop, Pending and When
// on such a handle are then no-ops only while no other goroutine runs a
// loop: they read the node's generation, which that loop writes. Where loops
// run concurrently, a holder drops the handle (sets it to the zero Timer)
// when its event fires or is stopped, as mptcp.Sender and xlink's live
// timers do.
type Timer struct {
	ev  *scheduledEvent
	gen uint64
}

// live reports whether the handle still refers to a pending event: a node
// that fired or was stopped has been recycled, which moved its gen on, also
// when it now serves another loop.
func (t Timer) live() bool {
	return t.ev != nil && t.ev.gen == t.gen
}

// Stop cancels the timer, taking its event out of the heap. It is a no-op
// if the event already fired or was already stopped. It reports whether the
// event was still pending.
func (t Timer) Stop() bool {
	if !t.live() {
		return false
	}
	t.ev.loop.remove(t.ev.idx).recycle()
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
	return t.ev.loop.heap[t.ev.idx].at
}

// Loop is a single-threaded discrete-event simulation loop with its own
// virtual clock. It is not safe for concurrent use; all simulated components
// must be driven from loop callbacks.
type Loop struct {
	now   time.Duration
	seq   uint64
	fired uint64
	// heap is a 4-ary min-heap on (at, seq), half as deep as a binary one:
	// a pop sifts through fewer levels, comparing adjacent entries.
	heap []heapEntry
}

// NewLoop returns an empty loop at virtual time zero.
func NewLoop() *Loop {
	return &Loop{}
}

// Now implements Clock.
func (l *Loop) Now() time.Duration { return l.now }

// Fired returns the number of events executed so far.
func (l *Loop) Fired() uint64 { return l.fired }

// Pending returns the number of events still scheduled.
func (l *Loop) Pending() int { return len(l.heap) }

// Next returns the instant of the earliest pending event, and false when
// none is pending.
func (l *Loop) Next() (time.Duration, bool) {
	if len(l.heap) == 0 {
		return 0, false
	}
	return l.heap[0].at, true
}

// At schedules fn to run at the absolute virtual time at. Events scheduled
// in the past run at the current time, never rewinding the clock.
func (l *Loop) At(at time.Duration, fn Event) Timer {
	return l.AtRecv(at, fn, 0)
}

// AtRecv schedules to.Fire(now, arg) at the absolute virtual time at, with
// At's clamping and FIFO order among events at one instant.
func (l *Loop) AtRecv(at time.Duration, to Receiver, arg int) Timer {
	if at < l.now {
		at = l.now
	}
	ev := getNode()
	ev.to, ev.arg, ev.loop = to, arg, l
	l.heap = append(l.heap, heapEntry{at: at, seq: l.seq, ev: ev})
	l.seq++
	l.up(len(l.heap) - 1)
	return Timer{ev: ev, gen: ev.gen}
}

// Schedule schedules fn at the absolute virtual time at, as At does, and
// returns a function that cancels it: transport.Env's shape. The function
// belongs to the event's node, not to the loop, and is bound once per node,
// so once the node pool is warm an arm and its cancel allocate nothing. It
// must be called at most once, and only before fn runs — after either, the
// node serves other events, of this loop or another, and a late call would
// cancel one of them.
func (l *Loop) Schedule(at time.Duration, fn Event) (cancel func()) {
	ev := l.AtRecv(at, fn, 0).ev
	// Bound once per node, which serves every later arm with it.
	if ev.cancel == nil {
		ev.cancel = ev.cancelPending
	}
	return ev.cancel
}

// cancelPending takes a Schedule arm's pending event out of its loop's heap.
func (ev *scheduledEvent) cancelPending() {
	l := ev.loop
	assert.That(l != nil, "sim timer cancelled twice or after it fired")
	if l != nil {
		l.remove(ev.idx).recycle()
	}
}

// After schedules fn to run d from now.
func (l *Loop) After(d time.Duration, fn Event) Timer {
	return l.At(l.now+d, fn)
}

// recycle returns a node that fired or was stopped to nodePool,
// invalidating any outstanding Timer handles and releasing the event's
// receiver and loop.
func (ev *scheduledEvent) recycle() {
	ev.gen++
	ev.to, ev.loop = nil, nil
	nodePool.Put(ev)
}

// up moves the entry at i towards the root until its parent comes before it.
func (l *Loop) up(i int) {
	h := l.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.idx = i
		i = p
	}
	h[i] = e
	e.ev.idx = i
}

// down moves the entry at i towards the leaves until it comes before all its
// children, and reports whether it moved.
func (l *Loop) down(i int) bool {
	h := l.heap
	e, start := h[i], i
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		m := first
		for c := first + 1; c < min(first+4, len(h)); c++ {
			if h[c].before(h[m]) {
				m = c
			}
		}
		if !h[m].before(e) {
			break
		}
		h[i] = h[m]
		h[i].ev.idx = i
		i = m
	}
	h[i] = e
	e.ev.idx = i
	return i != start
}

// remove takes the entry at i out of the heap and returns its node. The
// last entry fills the hole and is sifted to its place; the order is a total
// order on (at, seq), so where an entry sits never changes what pops next.
func (l *Loop) remove(i int) *scheduledEvent {
	ev := l.heap[i].ev
	last := len(l.heap) - 1
	l.heap[i] = l.heap[last]
	l.heap[last] = heapEntry{}
	l.heap = l.heap[:last]
	if i < last && !l.down(i) {
		l.up(i)
	}
	return ev
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (l *Loop) Step() bool {
	if len(l.heap) == 0 {
		return false
	}
	l.now = l.heap[0].at
	ev := l.remove(0)
	l.fired++
	to, arg := ev.to, ev.arg
	ev.recycle()
	to.Fire(l.now, arg)
	return true
}

// RunUntil executes events until the clock would pass deadline or no events
// remain. Events at exactly deadline are executed. The clock finishes at
// deadline if it was reached.
func (l *Loop) RunUntil(deadline time.Duration) {
	for len(l.heap) > 0 && l.heap[0].at <= deadline {
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
