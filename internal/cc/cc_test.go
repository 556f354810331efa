package cc

import (
	"testing"
	"testing/quick"
	"time"
)

func TestRTTEstimatorFirstSample(t *testing.T) {
	e := NewRTTEstimator()
	if e.samples != 0 {
		t.Fatal("no samples yet")
	}
	if e.Smoothed() != DefaultInitialRTT {
		t.Fatal("pre-sample smoothed should be the RFC initial RTT")
	}
	e.Update(100*time.Millisecond, 0)
	if e.Smoothed() != 100*time.Millisecond {
		t.Fatalf("smoothed = %v", e.Smoothed())
	}
	if e.Variation() != 50*time.Millisecond {
		t.Fatalf("variation = %v", e.Variation())
	}
	if e.min != 100*time.Millisecond || e.Latest() != 100*time.Millisecond {
		t.Fatal("min/latest")
	}
}

func TestRTTEstimatorSmoothing(t *testing.T) {
	e := NewRTTEstimator()
	e.Update(100*time.Millisecond, 0)
	e.Update(200*time.Millisecond, 0)
	// srtt = 7/8*100 + 1/8*200 = 112.5ms
	if got := e.Smoothed(); got != 112500*time.Microsecond {
		t.Fatalf("smoothed = %v, want 112.5ms", got)
	}
}

func TestRTTEstimatorAckDelayAdjustment(t *testing.T) {
	e := NewRTTEstimator()
	e.Update(100*time.Millisecond, 0)
	// Sample inflated by peer delay; adjusted = 150-40 = 110ms.
	e.Update(150*time.Millisecond, 40*time.Millisecond)
	want := (7*100*time.Millisecond + 110*time.Millisecond) / 8
	if got := e.Smoothed(); got != want {
		t.Fatalf("smoothed = %v, want %v", got, want)
	}
}

func TestRTTEstimatorIgnoresNonPositive(t *testing.T) {
	e := NewRTTEstimator()
	e.Update(0, 0)
	e.Update(-5*time.Millisecond, 0)
	if e.samples != 0 {
		t.Fatal("non-positive samples must be ignored")
	}
}

func TestPTOBounds(t *testing.T) {
	e := NewRTTEstimator()
	e.Update(time.Millisecond, 0)
	// With tiny rtt: pto >= MinPTO? rtt=1ms, var=0.5ms → 1+2=3ms → clamped to 10ms.
	if got := e.PTO(); got != MinPTO {
		t.Fatalf("PTO = %v, want clamped to %v", got, MinPTO)
	}
	e2 := NewRTTEstimator()
	e2.Update(200*time.Millisecond, 0)
	if e2.PTO() <= 200*time.Millisecond {
		t.Fatal("PTO must exceed smoothed RTT")
	}
}

func TestDeliverTime(t *testing.T) {
	e := NewRTTEstimator()
	e.Update(80*time.Millisecond, 0)
	if e.DeliverTime() != 120*time.Millisecond { // 80 + 40 (var=half first sample)
		t.Fatalf("DeliverTime = %v, want 120ms", e.DeliverTime())
	}
}

func testControllerBasics(t *testing.T, c Controller) {
	t.Helper()
	if c.Window() != InitialWindow {
		t.Fatalf("%s: initial window %d", c.Name(), c.Window())
	}
	if !c.InSlowStart() {
		t.Fatalf("%s: should start in slow start", c.Name())
	}
	// Slow start doubles per RTT: ack everything we send.
	now := time.Duration(0)
	rtt := 50 * time.Millisecond
	for round := 0; round < 5; round++ {
		w := c.Window()
		sent := 0
		for c.CanSend(MaxDatagramSize) {
			c.OnPacketSent(now, MaxDatagramSize)
			sent += MaxDatagramSize
		}
		if sent < w-MaxDatagramSize {
			t.Fatalf("%s: could not fill window", c.Name())
		}
		now += rtt
		for sent > 0 {
			c.OnPacketAcked(now, MaxDatagramSize, rtt)
			sent -= MaxDatagramSize
		}
		if c.Window() < 2*w-2*MaxDatagramSize {
			t.Fatalf("%s: slow start round %d window %d, want ~2x %d", c.Name(), round, c.Window(), w)
		}
	}
	if c.BytesInFlight() != 0 {
		t.Fatalf("%s: in flight should be 0", c.Name())
	}
	// A loss halves (Reno) or x0.7 (Cubic) and exits slow start.
	before := c.Window()
	c.OnPacketSent(now, MaxDatagramSize)
	c.OnPacketLost(now+time.Millisecond, now, MaxDatagramSize)
	if c.Window() >= before {
		t.Fatalf("%s: loss must reduce window", c.Name())
	}
	if c.InSlowStart() {
		t.Fatalf("%s: loss must exit slow start", c.Name())
	}
	// RTO collapses to minimum.
	c.OnRetransmissionTimeout(now + time.Second)
	if c.Window() != MinWindow {
		t.Fatalf("%s: RTO window = %d, want %d", c.Name(), c.Window(), MinWindow)
	}
	// Reset restores initial state.
	c.Reset()
	if c.Window() != InitialWindow || !c.InSlowStart() {
		t.Fatalf("%s: reset failed", c.Name())
	}
}

func TestNewRenoBasics(t *testing.T) { testControllerBasics(t, NewNewReno()) }
func TestCubicBasics(t *testing.T)   { testControllerBasics(t, NewCubic()) }

func TestOneReductionPerRecoveryRound(t *testing.T) {
	for _, c := range []Controller{NewNewReno(), NewCubic()} {
		now := 100 * time.Millisecond
		// Grow a bit first.
		for i := 0; i < 20; i++ {
			c.OnPacketSent(now, MaxDatagramSize)
			c.OnPacketAcked(now, MaxDatagramSize, 50*time.Millisecond)
		}
		sentAt := now - 10*time.Millisecond
		c.OnPacketSent(now, 3*MaxDatagramSize)
		c.OnPacketLost(now, sentAt, MaxDatagramSize)
		after1 := c.Window()
		// Second loss from the same flight (sent before recovery start).
		c.OnPacketLost(now+time.Millisecond, sentAt, MaxDatagramSize)
		if c.Window() != after1 {
			t.Fatalf("%s: second loss in same round must not reduce again", c.Name())
		}
		// A loss of a packet sent after recovery start reduces again.
		c.OnPacketSent(now+2*time.Millisecond, MaxDatagramSize)
		c.OnPacketLost(now+20*time.Millisecond, now+2*time.Millisecond, MaxDatagramSize)
		if c.Window() >= after1 {
			t.Fatalf("%s: new-round loss must reduce window", c.Name())
		}
	}
}

func TestCubicRegrowthTowardWmax(t *testing.T) {
	c := NewCubic()
	now := time.Duration(0)
	rtt := 20 * time.Millisecond
	// Grow to ~100 datagrams via slow start.
	for c.Window() < 100*MaxDatagramSize {
		c.OnPacketSent(now, MaxDatagramSize)
		c.OnPacketAcked(now, MaxDatagramSize, rtt)
		now += time.Millisecond
	}
	// Loss: remember wMax, reduce.
	c.OnPacketSent(now, MaxDatagramSize)
	c.OnPacketLost(now, now-time.Millisecond, MaxDatagramSize)
	reduced := c.Window()
	if reduced >= 100*MaxDatagramSize {
		t.Fatal("loss should reduce the window")
	}
	// Ack steadily: window must regrow toward wMax over time (concave region).
	grew := false
	for i := 0; i < 3000; i++ {
		now += time.Millisecond
		c.OnPacketSent(now, MaxDatagramSize)
		c.OnPacketAcked(now, MaxDatagramSize, rtt)
		if c.Window() > reduced+10*MaxDatagramSize {
			grew = true
			break
		}
	}
	if !grew {
		t.Fatal("cubic must regrow after a reduction")
	}
}

func TestCubicMonotoneBetweenLosses(t *testing.T) {
	c := NewCubic()
	now := time.Duration(0)
	// Exit slow start with one loss.
	for i := 0; i < 50; i++ {
		c.OnPacketSent(now, MaxDatagramSize)
		c.OnPacketAcked(now, MaxDatagramSize, 30*time.Millisecond)
	}
	c.OnPacketSent(now, MaxDatagramSize)
	c.OnPacketLost(now, now, MaxDatagramSize)
	last := c.Window()
	for i := 0; i < 2000; i++ {
		now += time.Millisecond
		c.OnPacketSent(now, MaxDatagramSize)
		c.OnPacketAcked(now, MaxDatagramSize, 30*time.Millisecond)
		if c.Window() < last {
			t.Fatalf("window decreased without loss at step %d: %d < %d", i, c.Window(), last)
		}
		last = c.Window()
	}
}

func TestPropertyWindowNeverBelowMin(t *testing.T) {
	f := func(ops []byte) bool {
		c := NewCubic()
		r := NewNewReno()
		now := time.Duration(0)
		for _, op := range ops {
			now += time.Millisecond
			for _, ctrl := range []Controller{c, r} {
				switch op % 4 {
				case 0:
					ctrl.OnPacketSent(now, MaxDatagramSize)
				case 1:
					ctrl.OnPacketAcked(now, MaxDatagramSize, 20*time.Millisecond)
				case 2:
					ctrl.OnPacketLost(now, now-time.Millisecond, MaxDatagramSize)
				case 3:
					ctrl.OnRetransmissionTimeout(now)
				}
				if ctrl.Window() < MinWindow {
					return false
				}
				if ctrl.BytesInFlight() < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNewSelectsAlgorithm(t *testing.T) {
	if New(AlgCubic).Name() != "cubic" {
		t.Fatal("AlgCubic")
	}
	if New(AlgNewReno).Name() != "newreno" {
		t.Fatal("AlgNewReno")
	}
}
