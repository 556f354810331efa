package cc

import "time"

// NewReno is the RFC 9002 NewReno congestion controller: slow start,
// additive increase in congestion avoidance, multiplicative decrease with
// one reduction per congestion "recovery" round.
type NewReno struct {
	window        int
	ssthresh      int
	inFlight      int
	recoveryStart time.Duration
	hasRecovery   bool
}

// NewNewReno returns a NewReno controller at the initial window.
func NewNewReno() *NewReno {
	return &NewReno{window: InitialWindow, ssthresh: 1 << 30}
}

// Name implements Controller.
func (c *NewReno) Name() string { return "newreno" }

// Reset implements Controller.
func (c *NewReno) Reset() {
	c.window = InitialWindow
	c.ssthresh = 1 << 30
	c.inFlight = 0
	c.hasRecovery = false
}

// Window implements Controller.
func (c *NewReno) Window() int { return c.window }

// BytesInFlight implements Controller.
func (c *NewReno) BytesInFlight() int { return c.inFlight }

// CanSend implements Controller.
func (c *NewReno) CanSend(bytes int) bool { return c.inFlight+bytes <= c.window }

// InSlowStart implements Controller.
func (c *NewReno) InSlowStart() bool { return c.window < c.ssthresh }

// OnPacketSent implements Controller.
func (c *NewReno) OnPacketSent(now time.Duration, bytes int) {
	c.inFlight += bytes
}

// OnPacketAcked implements Controller.
func (c *NewReno) OnPacketAcked(now time.Duration, bytes int, rtt time.Duration) {
	c.inFlight -= bytes
	if c.inFlight < 0 {
		c.inFlight = 0
	}
	if c.InSlowStart() {
		c.window += bytes
		return
	}
	// Congestion avoidance: one MSS per window of acked data.
	c.window += MaxDatagramSize * bytes / c.window
}

// OnPacketLost implements Controller.
func (c *NewReno) OnPacketLost(now, sentAt time.Duration, bytes int) {
	c.inFlight -= bytes
	if c.inFlight < 0 {
		c.inFlight = 0
	}
	// Only one reduction per recovery period: ignore losses of packets
	// sent before recovery began.
	if c.hasRecovery && sentAt <= c.recoveryStart {
		return
	}
	c.recoveryStart = now
	c.hasRecovery = true
	c.window /= 2
	if c.window < MinWindow {
		c.window = MinWindow
	}
	c.ssthresh = c.window
}

// OnRetransmissionTimeout implements Controller.
func (c *NewReno) OnRetransmissionTimeout(now time.Duration) {
	c.ssthresh = c.window / 2
	if c.ssthresh < MinWindow {
		c.ssthresh = MinWindow
	}
	c.window = MinWindow
	c.hasRecovery = false
}
