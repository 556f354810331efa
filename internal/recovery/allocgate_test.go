package recovery

import (
	"testing"
	"time"

	"repro/internal/assert"
	"repro/internal/cc"
	"repro/internal/wire"
)

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// TestAllocGateLossDetection gates the loss-detection entry points of a warm
// Space at zero allocations (scripts/check.sh runs every TestAllocGate*): an
// ACK declaring a packet lost by the packet threshold, a loss timeout that
// finds nothing left to declare, a probe timeout, and DeclareAllLost
// evacuating what is still in flight. Records come from the pool, and the
// result slices are the Space's scratch.
func TestAllocGateLossDetection(t *testing.T) {
	if assert.Enabled {
		t.Skip("xlinkdebug: the ledger assertions allocate by design")
	}
	if raceEnabled {
		t.Skip("-race: the record pool drops records on purpose")
	}
	s := NewSpace(cc.NewRTTEstimator())
	var now time.Duration
	send := func(n int) uint64 {
		first := s.PeekPN()
		for i := 0; i < n; i++ {
			sp := Acquire()
			sp.PN, sp.SentAt, sp.Bytes, sp.AckEliciting = s.NextPN(), now, 1200, true
			s.OnPacketSent(sp)
		}
		return first
	}
	ranges := make([]wire.AckRange, 2)
	var acked, lost, late, probes, evacuated int
	round := func() {
		now += time.Millisecond
		first := send(8)
		now += 10 * time.Millisecond
		// Everything but first+1, which falls PacketThreshold behind.
		ranges[0] = wire.AckRange{Smallest: first + 2, Largest: first + 7}
		ranges[1] = wire.AckRange{Smallest: first, Largest: first}
		res := s.OnAck(ranges, 0, now)
		acked, lost = len(res.Acked), len(res.Lost)
		late = len(s.OnLossTimeout(now))
		send(4)
		probes = len(s.OnPTO(now))
		evacuated = len(s.DeclareAllLost(now))
	}
	for i := 0; i < 8; i++ { // grow the ledger, the pool and the scratch
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("a warm ack, loss and evacuation round allocates %.1f, want 0", avg)
	}
	if acked != 7 || lost != 1 || late != 0 || probes != 2 || evacuated != 4 {
		t.Fatalf("last round: %d acked, %d lost, %d lost late, %d probes, %d evacuated; want 7, 1, 0, 2, 4", acked, lost, late, probes, evacuated)
	}
	if s.HasUnacked() {
		t.Fatal("packets left in flight after the evacuation")
	}
}
