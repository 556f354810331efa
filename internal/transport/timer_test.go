package transport

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Tests for the connection timer rule (DESIGN.md §19): the Env's timer is
// left alone while it fires before the deadline, and a timer that fires before
// the deadline re-schedules itself without running protocol code.

// fakeTimer is one Schedule call on a countingEnv.
type fakeTimer struct {
	at time.Duration
	fn func(time.Duration)
}

// countingEnv is an Env that counts what a connection does to its timer and
// keeps the pending ones, so a test can fire them by hand.
type countingEnv struct {
	quietEnv
	schedules, cancels int
	pending            []*fakeTimer
}

func (e *countingEnv) Schedule(at time.Duration, fn func(time.Duration)) func() {
	e.schedules++
	t := &fakeTimer{at: at, fn: fn}
	e.pending = append(e.pending, t)
	return func() {
		e.cancels++
		e.remove(t)
	}
}

func (e *countingEnv) remove(t *fakeTimer) {
	for i, p := range e.pending {
		if p == t {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			return
		}
	}
}

// fire runs the one pending timer at its own instant.
func (e *countingEnv) fire(t *testing.T) {
	t.Helper()
	if len(e.pending) != 1 {
		t.Fatalf("%d timers pending, want 1", len(e.pending))
	}
	tm := e.pending[0]
	e.pending = e.pending[:0]
	if tm.at > e.now {
		e.now = tm.at
	}
	tm.fn(e.now)
}

// calls returns the Schedule and cancel calls made since the last call.
func (e *countingEnv) calls() (schedules, cancels int) {
	schedules, cancels = e.schedules, e.cancels
	e.schedules, e.cancels = 0, 0
	return
}

// newTimerRig is the gate rig with its server moved to a countingEnv and
// traced; the timer is armed afresh there, so exactly one timer is pending
// whenever the server has a deadline.
func newTimerRig(t *testing.T, idle time.Duration) (*gateRig, *countingEnv, *obs.Trace) {
	t.Helper()
	tr := obs.NewTrace("timer")
	r := newRig(t, func(scfg *Config) {
		scfg.IdleTimeout = idle
		scfg.Tracer = tr.Origin("server")
	})
	env := &countingEnv{quietEnv: quietEnv{now: r.env.now}}
	r.s.cancelTimer()
	r.env, r.s.env = &env.quietEnv, env
	r.s.rearmTimer()
	env.calls()
	return r, env, tr
}

// wantTimer checks the invariant between what the connection wants and what
// the Env holds: no deadline and no timer, or one timer at or before timerDue.
func wantTimer(t *testing.T, c *Conn, env *countingEnv) {
	t.Helper()
	switch {
	case c.timerDue == 0:
		if len(env.pending) != 0 || c.timerCancel != nil {
			t.Fatalf("no deadline, but %d timers pending", len(env.pending))
		}
	case len(env.pending) != 1 || c.timerCancel == nil:
		t.Fatalf("deadline at %v, but %d timers pending", c.timerDue, len(env.pending))
	case env.pending[0].at != c.timerAt || c.timerAt > c.timerDue:
		t.Fatalf("deadline at %v, timer recorded at %v and pending at %v", c.timerDue, c.timerAt, env.pending[0].at)
	}
}

// TestTimerTouchedOnlyWhenDeadlineMovesEarlier walks a server through the
// steady state: the first packet in flight (a PTO where there was only the
// idle timeout) and a loss time are the deadlines that move earlier — one
// cancel, one Schedule, at the new deadline; the idle deadline receding with
// every packet received and the PTO re-based on every packet sent move it
// later and cost nothing; a re-arm that finds the timer exactly at the
// deadline renews it there.
func TestTimerTouchedOnlyWhenDeadlineMovesEarlier(t *testing.T) {
	r, env, tr := newTimerRig(t, 30*time.Second)
	s := r.s
	p := s.paths[0]

	wantTimer(t, s, env)
	idleTimer := env.pending[0].at
	if due := s.lastRecvActivity + 30*time.Second; s.timerDue != due || idleTimer != due {
		t.Fatalf("idle connection: deadline %v, timer at %v, want the idle timeout at %v", s.timerDue, idleTimer, due)
	}

	// (a) Received packets, each acknowledged on the spot, push the idle
	// deadline out; the timer set for the old one is left alone.
	sent := s.Stats().SentPackets
	for i := 0; i < 6; i++ {
		r.deliverAfter(50*time.Microsecond, &wire.PingFrame{})
	}
	if sch, can := env.calls(); sch != 0 || can != 0 || p.ackQueued || s.Stats().SentPackets != sent+6 {
		t.Fatalf("six packets received, %d ACKs sent: %d Schedule, %d cancel, want none", s.Stats().SentPackets-sent, sch, can)
	}
	if due := s.lastRecvActivity + 30*time.Second; s.timerDue != due || due <= idleTimer || env.pending[0].at != idleTimer {
		t.Fatalf("deadline %v (want idle timeout %v), timer at %v (want still %v)", s.timerDue, due, env.pending[0].at, idleTimer)
	}
	wantTimer(t, s, env)

	// (b) A send pass puts a packet in flight: its PTO is earlier than the
	// idle timeout.
	st := s.OpenStream()
	full := make([]byte, r.fullChunk())
	r.env.now += 100 * time.Microsecond
	st.Write(full)
	firstPTO := p.Space.PTODeadline()
	if sch, can := env.calls(); sch != 1 || can != 1 || s.timerDue != firstPTO || env.pending[0].at != firstPTO {
		t.Fatalf("first packet in flight: %d Schedule, %d cancel, deadline %v, want 1 and 1 at the PTO %v", sch, can, s.timerDue, firstPTO)
	}
	wantTimer(t, s, env)

	// (a) The next pass re-bases the PTO on a newer packet: later, and free.
	r.env.now += 100 * time.Microsecond
	st.Write(full)
	if sch, can := env.calls(); sch != 0 || can != 0 || s.timerDue <= firstPTO || s.timerDue != p.Space.PTODeadline() || env.pending[0].at != firstPTO {
		t.Fatalf("second packet in flight: %d Schedule, %d cancel, deadline %v (first PTO %v)", sch, can, s.timerDue, firstPTO)
	}
	wantTimer(t, s, env)

	// (b) The second packet is acknowledged and the first is not: it is one
	// reordering window away from being declared lost, and that loss time is
	// earlier than the PTO.
	last := p.Space.PeekPN() - 1
	r.deliverAfter(100*time.Microsecond, &wire.AckMPFrame{PathID: 0, Ranges: []wire.AckRange{{Smallest: last, Largest: last}}})
	lossAt := p.Space.LossTime()
	if lossAt == 0 || lossAt >= firstPTO {
		t.Fatalf("test is mistimed: loss time %v, PTO timer at %v", lossAt, firstPTO)
	}
	// (The frame handler and HandleDatagram each re-arm; the second finds the
	// timer already at the deadline and renews it.)
	if sch, can := env.calls(); sch != 2 || can != 2 || s.timerDue != lossAt || env.pending[0].at != lossAt {
		t.Fatalf("loss time set: %d Schedule, %d cancel, deadline %v, want 2 and 2 at %v", sch, can, s.timerDue, lossAt)
	}
	wantTimer(t, s, env)

	// A re-arm with the deadline unchanged renews the timer where it is: the
	// new one stands behind whatever was scheduled for that instant since.
	s.rearmTimer()
	if sch, can := env.calls(); sch != 1 || can != 1 || s.timerDue != lossAt || env.pending[0].at != lossAt {
		t.Fatalf("deadline unchanged: %d Schedule, %d cancel, timer at %v, want 1 and 1 at %v", sch, can, env.pending[0].at, lossAt)
	}
	wantTimer(t, s, env)

	// On time, the timer body runs: the packet is declared lost and its data
	// goes out again, which re-bases the PTO once more.
	rtx := s.Stats().RtxBytesSent
	env.fire(t)
	if env.now != lossAt || s.Stats().RtxBytesSent == rtx {
		t.Fatalf("timer fired at %v (loss time %v), retransmitted %d bytes", env.now, lossAt, s.Stats().RtxBytesSent-rtx)
	}
	wantTimer(t, s, env)

	// (c) Another packet moves the PTO later; the timer set for the earlier
	// one then fires with nothing due.
	r.env.now += 100 * time.Microsecond
	st.Write(full)
	env.calls()
	checkEarlyWake(t, r, env, tr)
}

// checkEarlyWake fires a timer that is pending before the deadline and checks
// that the wake is invisible: nothing sent, no trace event, no counter moved,
// and exactly one timer pending afterwards, at the deadline.
func checkEarlyWake(t *testing.T, r *gateRig, env *countingEnv, tr *obs.Trace) {
	t.Helper()
	s := r.s
	if len(env.pending) != 1 || env.pending[0].at >= s.timerDue {
		t.Fatalf("no early timer to fire: %d pending, deadline %v", len(env.pending), s.timerDue)
	}
	due := s.timerDue
	stats, events := s.Stats(), tr.EventCount()
	pstats := *s.paths[0]
	env.fire(t)
	if env.now >= due {
		t.Fatalf("timer fired at %v, not before the deadline %v", env.now, due)
	}
	if s.Stats() != stats || tr.EventCount() != events {
		t.Fatalf("an early wake changed ConnStats or emitted %d events", tr.EventCount()-events)
	}
	if after := *s.paths[0]; after.SentPackets != pstats.SentPackets || after.ackQueued != pstats.ackQueued || after.Space.PeekPN() != pstats.Space.PeekPN() {
		t.Fatal("an early wake sent a packet or touched the path's ACK state")
	}
	if sch, can := env.calls(); sch != 1 || can != 0 || s.timerDue != due || env.pending[0].at != due {
		t.Fatalf("early wake: %d Schedule, %d cancel, deadline %v, timer at %v; want one Schedule at %v", sch, can, s.timerDue, env.pending[0].at, due)
	}
	wantTimer(t, s, env)
}

// TestTimerReleasedWhenNothingIsDue: with no idle timeout, nothing in flight
// and no ACK owed there is no deadline, and the timer is cancelled at once
// rather than left to fire into nothing; the same holds for every way a
// connection ends.
func TestTimerReleasedWhenNothingIsDue(t *testing.T) {
	r, env, _ := newTimerRig(t, 0)
	s := r.s
	ping := &wire.PingFrame{}
	if s.nextDeadline() != 0 {
		t.Fatalf("quiet connection without idle timeout has a deadline at %v", s.nextDeadline())
	}
	wantTimer(t, s, env)

	r.deliverAfter(100*time.Microsecond, ping) // acknowledged on the spot: still nothing due
	if sch, can := env.calls(); sch != 0 || can != 0 || s.nextDeadline() != 0 {
		t.Fatalf("received packet, no deadline: %d Schedule, %d cancel, next deadline %v", sch, can, s.nextDeadline())
	}
	st := s.OpenStream()
	st.Write([]byte("one packet in flight")) // a PTO: a deadline, a timer
	if sch, can := env.calls(); sch != 1 || can != 0 || len(env.pending) != 1 {
		t.Fatalf("PTO from no timer: %d Schedule, %d cancel, %d pending", sch, can, len(env.pending))
	}
	wantTimer(t, s, env)
	pn := s.paths[0].Space.PeekPN() - 1
	r.deliverAfter(100*time.Microsecond, &wire.AckMPFrame{PathID: 0, Ranges: []wire.AckRange{{Smallest: 0, Largest: pn}}})
	if sch, can := env.calls(); sch != 0 || can != 1 || s.nextDeadline() != 0 {
		t.Fatalf("deadline gone: %d Schedule, %d cancel, next deadline %v; want one cancel", sch, can, s.nextDeadline())
	}
	wantTimer(t, s, env)

	// Close: the drain deadline is the only timer; when it expires the
	// connection is terminal and holds none.
	s.Close(0, "done")
	if s.state != stateClosing || len(env.pending) != 1 || env.pending[0].at != s.drainDeadline {
		t.Fatalf("closing: state %v, %d timers pending", s.state, len(env.pending))
	}
	wantTimer(t, s, env)
	env.fire(t)
	if !s.Closed() || s.timerDue != 0 || len(env.pending) != 0 {
		t.Fatalf("after the drain period: closed %v, deadline %v, %d timers pending", s.Closed(), s.timerDue, len(env.pending))
	}
	wantTimer(t, s, env)
}

// TestTimerIdleTimeoutAfterEarlyWakes: a connection whose idle deadline kept
// receding is woken early once, sleeps again until the real deadline, closes
// exactly then and leaves no timer behind.
func TestTimerIdleTimeoutAfterEarlyWakes(t *testing.T) {
	r, env, tr := newTimerRig(t, 2*time.Second)
	s := r.s
	for i := 0; i < 10; i++ {
		r.deliverAfter(100*time.Millisecond, &wire.PaddingFrame{Count: 1}) // not ack-eliciting
	}
	if sch, can := env.calls(); sch != 0 || can != 0 {
		t.Fatalf("ten packets that only pushed the idle deadline out: %d Schedule, %d cancel", sch, can)
	}
	idleAt := s.lastRecvActivity + 2*time.Second
	if s.timerDue != idleAt {
		t.Fatalf("deadline %v, want the idle timeout at %v", s.timerDue, idleAt)
	}
	checkEarlyWake(t, r, env, tr)
	env.fire(t)
	if env.now != idleAt || !s.Closed() || s.Stats().CloseErrorCode != ErrCodeIdleTimeout {
		t.Fatalf("at %v (idle timeout %v): closed %v, code %#x", env.now, idleAt, s.Closed(), s.Stats().CloseErrorCode)
	}
	if s.timerDue != 0 || len(env.pending) != 0 {
		t.Fatalf("closed connection: deadline %v, %d timers pending", s.timerDue, len(env.pending))
	}
}
