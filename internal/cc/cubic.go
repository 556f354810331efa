package cc

import (
	"math"
	"time"
)

// Cubic constants from RFC 8312: the cubic scaling constant C and the
// multiplicative decrease factor beta.
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// Cubic is the RFC 8312 Cubic congestion controller, the algorithm used in
// all of the paper's experiments. It grows the window as a cubic function
// of time since the last reduction, anchored at the pre-loss window W_max,
// with a TCP-friendly (Reno) lower bound.
type Cubic struct {
	window   int
	ssthresh int
	inFlight int

	wMax          float64 // window before last reduction, in datagrams
	k             float64 // time (s) to regrow to wMax
	epochStart    time.Duration
	hasEpoch      bool
	recoveryStart time.Duration
	hasRecovery   bool
	ackedBytes    int // accumulator for Reno-friendly region
	wTCP          float64
}

// NewCubic returns a Cubic controller at the initial window.
func NewCubic() *Cubic {
	return &Cubic{window: InitialWindow, ssthresh: 1 << 30}
}

// Name implements Controller.
func (c *Cubic) Name() string { return "cubic" }

// Reset implements Controller.
func (c *Cubic) Reset() {
	*c = Cubic{window: InitialWindow, ssthresh: 1 << 30}
}

// Window implements Controller.
func (c *Cubic) Window() int { return c.window }

// BytesInFlight implements Controller.
func (c *Cubic) BytesInFlight() int { return c.inFlight }

// CanSend implements Controller.
func (c *Cubic) CanSend(bytes int) bool { return c.inFlight+bytes <= c.window }

// InSlowStart implements Controller.
func (c *Cubic) InSlowStart() bool { return c.window < c.ssthresh }

// OnPacketSent implements Controller.
func (c *Cubic) OnPacketSent(now time.Duration, bytes int) {
	c.inFlight += bytes
}

// OnPacketAcked implements Controller.
func (c *Cubic) OnPacketAcked(now time.Duration, bytes int, rtt time.Duration) {
	c.inFlight -= bytes
	if c.inFlight < 0 {
		c.inFlight = 0
	}
	if c.InSlowStart() {
		c.window += bytes
		return
	}
	if !c.hasEpoch {
		// First ack after a reduction (or after leaving slow start with
		// no prior loss): start a cubic epoch.
		c.hasEpoch = true
		c.epochStart = now
		if c.wMax < float64(c.window)/MaxDatagramSize {
			c.wMax = float64(c.window) / MaxDatagramSize
		}
		c.k = math.Cbrt(c.wMax * (1 - cubicBeta) / cubicC)
		c.wTCP = float64(c.window) / MaxDatagramSize
		c.ackedBytes = 0
	}
	t := (now - c.epochStart).Seconds()
	// Cubic target window in datagrams: W(t) = C(t-K)^3 + Wmax.
	wCubic := cubicC*math.Pow(t-c.k, 3) + c.wMax
	// TCP-friendly window estimate: Reno's AIMD slope.
	if rtt > 0 {
		c.ackedBytes += bytes
		for c.ackedBytes >= c.window {
			c.ackedBytes -= c.window
			c.wTCP++
		}
	}
	target := wCubic
	if c.wTCP > target {
		target = c.wTCP
	}
	cwndDatagrams := float64(c.window) / MaxDatagramSize
	if target > cwndDatagrams {
		// Approach the target over the next RTT: increase by
		// (target - cwnd)/cwnd per ack.
		inc := (target - cwndDatagrams) / cwndDatagrams * float64(bytes)
		c.window += int(inc)
	} else {
		// At or above target: grow very slowly (1% of MSS per ack),
		// per RFC 8312 §4.2's "small increment".
		c.window += MaxDatagramSize * bytes / (100 * c.window)
	}
}

// OnPacketLost implements Controller.
func (c *Cubic) OnPacketLost(now, sentAt time.Duration, bytes int) {
	c.inFlight -= bytes
	if c.inFlight < 0 {
		c.inFlight = 0
	}
	if c.hasRecovery && sentAt <= c.recoveryStart {
		return
	}
	c.recoveryStart = now
	c.hasRecovery = true
	cwndDatagrams := float64(c.window) / MaxDatagramSize
	// Fast convergence: if the window stopped below the previous wMax,
	// release bandwidth early for new flows.
	if cwndDatagrams < c.wMax {
		c.wMax = cwndDatagrams * (1 + cubicBeta) / 2
	} else {
		c.wMax = cwndDatagrams
	}
	c.window = int(float64(c.window) * cubicBeta)
	if c.window < MinWindow {
		c.window = MinWindow
	}
	c.ssthresh = c.window
	c.hasEpoch = false
}

// OnRetransmissionTimeout implements Controller.
func (c *Cubic) OnRetransmissionTimeout(now time.Duration) {
	cwndDatagrams := float64(c.window) / MaxDatagramSize
	if cwndDatagrams > c.wMax {
		c.wMax = cwndDatagrams
	}
	c.ssthresh = int(float64(c.window) * cubicBeta)
	if c.ssthresh < MinWindow {
		c.ssthresh = MinWindow
	}
	c.window = MinWindow
	c.hasEpoch = false
	c.hasRecovery = false
}
