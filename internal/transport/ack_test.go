package transport

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// Tests for when an ACK leaves (DESIGN.md §20): once ackElicitingThreshold
// packets wait for it, once MaxAckDelay has passed, at once after an
// out-of-order arrival, and otherwise only riding on a packet that carries
// another frame.

// sentLog is a DatagramSender that opens what the rig's server sends with the
// client's keys and keeps the frames of every packet.
type sentLog struct {
	peer *Conn
	pkts [][]wire.Frame
}

func (l *sentLog) SendBatch(netIdx int, pkts [][]byte) int {
	for _, d := range pkts {
		_, payload, _, err := openShort(l.peer.rxSealer, nil, d, cidLen, 0, l.peer.paths[0].largestRecvPN)
		if err != nil {
			panic(err)
		}
		frames, err := wire.ParseAll(payload)
		if err != nil {
			panic(err)
		}
		l.pkts = append(l.pkts, frames)
	}
	return len(pkts)
}

// take returns the packets logged since the last call.
func (l *sentLog) take() [][]wire.Frame {
	pkts := l.pkts
	l.pkts = nil
	return pkts
}

// newAckRig is the timer rig with the server's packets logged.
func newAckRig(t *testing.T) (*gateRig, *countingEnv, *sentLog) {
	t.Helper()
	r, env, _ := newTimerRig(t, 0)
	log := &sentLog{peer: r.c}
	r.s.sender = log
	return r, env, log
}

// ackOnly checks that pkts is one packet holding one ACK_MP and nothing else,
// and returns its ranges.
func ackOnly(t *testing.T, what string, pkts [][]wire.Frame) []wire.AckRange {
	t.Helper()
	if len(pkts) != 1 || len(pkts[0]) != 1 {
		t.Fatalf("%s: %d packets sent (%v), want one ACK_MP", what, len(pkts), pkts)
	}
	ack, ok := pkts[0][0].(*wire.AckMPFrame)
	if !ok {
		t.Fatalf("%s: sent %T, want an ACK_MP", what, pkts[0][0])
	}
	return ack.Ranges
}

// TestAckLeavesAtThreshold: one ack-eliciting packet queues an ACK and sends
// nothing; the second makes it due and one ACK-only packet covers both.
func TestAckLeavesAtThreshold(t *testing.T) {
	r, _, log := newAckRig(t)
	p := r.s.paths[0]
	first := r.c.paths[0].Space.PeekPN()
	r.deliverAfter(50*time.Microsecond, &wire.PingFrame{})
	if pkts := log.take(); len(pkts) != 0 || !p.ackQueued {
		t.Fatalf("one ack-eliciting packet: %d packets sent, ACK queued %v; want none sent and one queued", len(pkts), p.ackQueued)
	}
	r.deliverAfter(50*time.Microsecond, &wire.PingFrame{})
	ranges := ackOnly(t, "two ack-eliciting packets", log.take())
	if ranges[0].Largest != first+1 || ranges[0].Smallest > first || p.ackQueued {
		t.Fatalf("ACK covers %v, ACK still queued %v; want both packets %d and %d acknowledged", ranges, p.ackQueued, first, first+1)
	}
	// Packets that elicit nothing owe nothing.
	for i := 0; i < 4; i++ {
		r.deliverAfter(50*time.Microsecond, &wire.PaddingFrame{Count: 1})
	}
	if pkts := log.take(); len(pkts) != 0 || p.ackQueued {
		t.Fatalf("padding-only packets: %d sent, ACK queued %v", len(pkts), p.ackQueued)
	}
}

// TestAckLeavesAfterMaxAckDelay: an ACK below the threshold waits for the
// connection timer and leaves exactly MaxAckDelay after its packet arrived.
func TestAckLeavesAfterMaxAckDelay(t *testing.T) {
	r, env, log := newAckRig(t)
	r.deliverAfter(50*time.Microsecond, &wire.PingFrame{})
	arrived := r.env.now
	if pkts := log.take(); len(pkts) != 0 {
		t.Fatalf("%d packets sent for one ack-eliciting packet", len(pkts))
	}
	env.fire(t)
	if env.now != arrived+r.s.cfg.MaxAckDelay {
		t.Fatalf("timer fired at %v, want the ACK deadline %v", env.now, arrived+r.s.cfg.MaxAckDelay)
	}
	ackOnly(t, "ACK delay expired", log.take())
	if r.s.paths[0].ackQueued || len(env.pending) != 0 {
		t.Fatalf("after the delayed ACK: queued %v, %d timers pending", r.s.paths[0].ackQueued, len(env.pending))
	}
}

// TestAckImmediateOnGap: RFC 9000 §13.2.1 — an ack-eliciting packet that opens
// a gap, or fills one, is acknowledged at once, below the threshold.
func TestAckImmediateOnGap(t *testing.T) {
	r, _, log := newAckRig(t)
	sp := r.c.paths[0].Space
	base := sp.NextPN()
	r.deliverPN(base, 50*time.Microsecond, &wire.PingFrame{})
	if pkts := log.take(); len(pkts) != 0 {
		t.Fatalf("in-order packet: %d sent", len(pkts))
	}
	r.deliverPN(base+1, 50*time.Microsecond, &wire.PaddingFrame{Count: 1}) // in order, elicits nothing: still below threshold
	sp.NextPN()
	skipped := sp.NextPN()
	r.deliverPN(sp.NextPN(), 50*time.Microsecond, &wire.PingFrame{}) // base+3: opens a gap at base+2
	ranges := ackOnly(t, "packet beyond a gap", log.take())
	if len(ranges) < 2 || ranges[0].Smallest != skipped+1 || ranges[1].Largest != skipped-1 {
		t.Fatalf("ACK ranges %v, want a hole at %d", ranges, skipped)
	}
	r.deliverPN(skipped, 50*time.Microsecond, &wire.PingFrame{}) // fills it
	ranges = ackOnly(t, "packet filling the gap", log.take())
	if ranges[0].Smallest > base || ranges[0].Largest != skipped+1 {
		t.Fatalf("ACK ranges %v after the gap filled, want one range from %d to %d", ranges, base, skipped+1)
	}
	if r.s.paths[0].ackQueued {
		t.Fatal("ACK still queued after leaving")
	}
}

// TestAckRidesOnlyWithAnotherFrame: a send pass with nothing but a queued,
// not-yet-due ACK sends nothing and keeps the ACK; the next packet that
// carries data takes it along.
func TestAckRidesOnlyWithAnotherFrame(t *testing.T) {
	r, _, log := newAckRig(t)
	s := r.s
	r.deliverAfter(50*time.Microsecond, &wire.PingFrame{})
	s.maybeSend(r.env.now)
	if pkts := log.take(); len(pkts) != 0 || !s.paths[0].ackQueued {
		t.Fatalf("send pass with only an ACK pending: %d packets sent, ACK queued %v", len(pkts), s.paths[0].ackQueued)
	}
	s.OpenStream().Write([]byte("data to ride on"))
	pkts := log.take()
	if len(pkts) != 1 || len(pkts[0]) != 2 || s.paths[0].ackQueued {
		t.Fatalf("data packet: %d packets %v, ACK queued %v; want one packet with the ACK and the data", len(pkts), pkts, s.paths[0].ackQueued)
	}
	if _, ok := pkts[0][0].(*wire.AckMPFrame); !ok {
		t.Fatalf("first frame %T, want the ACK_MP", pkts[0][0])
	}
	if _, ok := pkts[0][1].(*wire.StreamFrame); !ok {
		t.Fatalf("second frame %T, want the STREAM frame", pkts[0][1])
	}
}

// TestClientAcksEveryOtherPacket: on a clean two-path pair a receiver that
// sends nothing else answers about one packet in two.
func TestClientAcksEveryOtherPacket(t *testing.T) {
	ccfg, scfg := defaultMPConfig()
	pair := NewPair(sim.NewLoop(), sim.NewRNG(18), TwoPathConfig(20, 20, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)
	transfer(t, pair, 4<<20, 30*time.Second)
	sent, recv := pair.Client.Stats().SentPackets, pair.Client.Stats().RecvPackets
	ratio := float64(sent) / float64(recv)
	t.Logf("client sent %d packets for %d received: %.3f", sent, recv, ratio)
	if recv < 3000 || ratio > 0.55 {
		t.Fatalf("client sent %d packets for %d received (%.3f), want at most 0.55", sent, recv, ratio)
	}
}
