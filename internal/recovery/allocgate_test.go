package recovery

import (
	"testing"
	"time"

	"repro/internal/assert"
	"repro/internal/cc"
	"repro/internal/wire"
)

// TestAllocGateLossDetection gates the loss-detection entry points of a warm
// Space at zero allocations (scripts/check.sh runs every TestAllocGate*): the
// batched receive's deferred form — OnAckNoLoss per ACK, one OnLossTimeout at
// batch end — declaring a packet lost by the packet threshold, a probe
// timeout, and DeclareAllLost evacuating what is still in flight. Records
// come off the free list, and the result slices are the Space's scratch.
func TestAllocGateLossDetection(t *testing.T) {
	if assert.Enabled {
		t.Skip("xlinkdebug: the ledger assertions allocate by design")
	}
	s := NewSpace(cc.NewRTTEstimator())
	var now time.Duration
	send := func(n int) uint64 {
		first := s.PeekPN()
		for i := 0; i < n; i++ {
			sp := s.Acquire()
			sp.PN, sp.SentAt, sp.Bytes, sp.AckEliciting = s.NextPN(), now, 1200, true
			s.OnPacketSent(sp)
		}
		return first
	}
	ranges := make([]wire.AckRange, 2)
	var acked, lost, probes, evacuated int
	round := func() {
		now += time.Millisecond
		first := send(8)
		now += 10 * time.Millisecond
		// Everything but first+1, which falls PacketThreshold behind.
		ranges[0] = wire.AckRange{Smallest: first + 2, Largest: first + 7}
		ranges[1] = wire.AckRange{Smallest: first, Largest: first}
		acked = len(s.OnAckNoLoss(ranges, 0, now).Acked)
		lost = len(s.OnLossTimeout(now))
		send(4)
		probes = len(s.OnPTO(now))
		evacuated = len(s.DeclareAllLost(now))
	}
	for i := 0; i < 8; i++ { // grow the ledger, the free list and the scratch
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("a warm ack, loss and evacuation round allocates %.1f, want 0", avg)
	}
	if acked != 7 || lost != 1 || probes != 2 || evacuated != 4 {
		t.Fatalf("last round: %d acked, %d lost, %d probes, %d evacuated; want 7, 1, 2, 4", acked, lost, probes, evacuated)
	}
	if s.HasUnacked() {
		t.Fatal("packets left in flight after the evacuation")
	}
}
