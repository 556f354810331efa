package recovery

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/assert"
	"repro/internal/cc"
	"repro/internal/sim"
	"repro/internal/wire"
)

func sent(s *Space, at time.Duration, n int) []*SentPacket {
	var out []*SentPacket
	for i := 0; i < n; i++ {
		sp := &SentPacket{PN: s.NextPN(), SentAt: at, Bytes: 1200, AckEliciting: true}
		s.OnPacketSent(sp)
		out = append(out, sp)
	}
	return out
}

func TestAckBasics(t *testing.T) {
	rtt := cc.NewRTTEstimator()
	s := NewSpace(rtt)
	sent(s, 0, 3)
	res := s.OnAck([]wire.AckRange{{Smallest: 0, Largest: 2}}, 0, 50*time.Millisecond)
	if len(res.Acked) != 3 {
		t.Fatalf("acked %d, want 3", len(res.Acked))
	}
	if res.LatestRTT != 50*time.Millisecond {
		t.Fatalf("rtt sample = %v", res.LatestRTT)
	}
	if rtt.Latest() != 50*time.Millisecond || rtt.Smoothed() != 50*time.Millisecond {
		t.Fatal("rtt estimator not updated")
	}
	if s.HasUnacked() {
		t.Fatal("all packets acked")
	}
	if s.LargestAcked() != 2 {
		t.Fatalf("largestAcked = %d", s.LargestAcked())
	}
}

func TestDuplicateAckIgnored(t *testing.T) {
	s := NewSpace(cc.NewRTTEstimator())
	sent(s, 0, 2)
	r1 := s.OnAck([]wire.AckRange{{Smallest: 0, Largest: 1}}, 0, 10*time.Millisecond)
	if len(r1.Acked) != 2 {
		t.Fatal("first ack")
	}
	r2 := s.OnAck([]wire.AckRange{{Smallest: 0, Largest: 1}}, 0, 20*time.Millisecond)
	if len(r2.Acked) != 0 {
		t.Fatal("duplicate ack must ack nothing")
	}
}

func TestPacketThresholdLoss(t *testing.T) {
	s := NewSpace(cc.NewRTTEstimator())
	pkts := sent(s, 0, 5)
	// Ack 3 and 4; pn 0 and 1 are >=3 behind → lost; pn 2 not yet.
	res := s.OnAck([]wire.AckRange{{Smallest: 3, Largest: 4}}, 0, 20*time.Millisecond)
	if len(res.Acked) != 2 {
		t.Fatalf("acked %d", len(res.Acked))
	}
	if len(res.Lost) != 2 || res.Lost[0].PN != 0 || res.Lost[1].PN != 1 {
		t.Fatalf("lost %v", res.Lost)
	}
	_ = pkts
	// pn 2 should have a pending time-threshold deadline.
	if s.LossTime() == 0 {
		t.Fatal("expected loss timer for pn 2")
	}
}

func TestTimeThresholdLoss(t *testing.T) {
	s := NewSpace(cc.NewRTTEstimator())
	sent(s, 0, 2)
	// Ack pn 1 at 40ms → rtt 40ms; pn 0 is 1 behind (below packet threshold).
	res := s.OnAck([]wire.AckRange{{Smallest: 1, Largest: 1}}, 0, 40*time.Millisecond)
	if len(res.Lost) != 0 {
		t.Fatal("no loss yet")
	}
	deadline := s.LossTime()
	if deadline == 0 {
		t.Fatal("loss timer must be armed")
	}
	// 9/8 * 40ms = 45ms.
	if deadline != 45*time.Millisecond {
		t.Fatalf("loss deadline %v, want 45ms", deadline)
	}
	lost := s.OnLossTimeout(deadline)
	if len(lost) != 1 || lost[0].PN != 0 {
		t.Fatalf("lost %v", lost)
	}
}

func TestLostPacketAckedLater(t *testing.T) {
	s := NewSpace(cc.NewRTTEstimator())
	sent(s, 0, 5)
	res := s.OnAck([]wire.AckRange{{Smallest: 4, Largest: 4}}, 0, 20*time.Millisecond)
	if len(res.Lost) != 2 { // pn 0, 1 by packet threshold
		t.Fatalf("lost %d", len(res.Lost))
	}
	// Late ack for a declared-lost packet must not re-ack it.
	res2 := s.OnAck([]wire.AckRange{{Smallest: 0, Largest: 0}}, 0, 30*time.Millisecond)
	if len(res2.Acked) != 0 {
		t.Fatal("spurious re-ack of lost packet")
	}
}

func TestPTODeadlineAndBackoff(t *testing.T) {
	rtt := cc.NewRTTEstimator()
	rtt.Update(100*time.Millisecond, 0)
	s := NewSpace(rtt)
	sent(s, 10*time.Millisecond, 1)
	d1 := s.PTODeadline()
	if d1 == 0 {
		t.Fatal("PTO must be armed with packets in flight")
	}
	want := 10*time.Millisecond + rtt.PTO()
	if d1 != want {
		t.Fatalf("PTO deadline %v, want %v", d1, want)
	}
	probes := s.OnPTO(d1)
	if len(probes) != 1 || probes[0].PN != 0 {
		t.Fatalf("probes %v", probes)
	}
	if s.PTOCount() != 1 {
		t.Fatal("backoff count")
	}
	// The next deadline anchors at the probe time with doubled backoff.
	d2 := s.PTODeadline()
	if d2 != d1+2*rtt.PTO() {
		t.Fatalf("second deadline %v, want %v (probe time + doubled PTO)", d2, d1+2*rtt.PTO())
	}
	// Progress resets backoff.
	s.OnAck([]wire.AckRange{{Smallest: 0, Largest: 0}}, 0, 200*time.Millisecond)
	if s.PTOCount() != 0 {
		t.Fatal("ack must reset PTO count")
	}
	if s.PTODeadline() != 0 {
		t.Fatal("no in-flight packets: no PTO")
	}
}

// ptoDeadlineFullScan is PTODeadline as it was before it scanned newest
// first: the latest SentAt over the whole ledger's in-flight packets.
func ptoDeadlineFullScan(s *Space) time.Duration {
	var lastSent time.Duration
	found := false
	for _, sp := range s.sent {
		if sp.acked || sp.declaredLost || !sp.AckEliciting {
			continue
		}
		lastSent = max(lastSent, sp.SentAt)
		found = true
	}
	if !found {
		return 0
	}
	return max(lastSent, s.lastProbeAt) + s.rtt.PTO()*time.Duration(1<<min(s.ptoCount, 6))
}

// TestPTODeadlineMatchesFullScan drives random ledgers — bursts of packets,
// some not ack-eliciting, acks of random ranges, loss and PTO timeouts — and
// checks the newest-first PTODeadline against the full scan after every step.
func TestPTODeadlineMatchesFullScan(t *testing.T) {
	rng := sim.NewRNG(9)
	for trial := 0; trial < 200; trial++ {
		rtt := cc.NewRTTEstimator()
		s := NewSpace(rtt)
		now := time.Duration(0)
		for step := 0; step < 60; step++ {
			now += time.Duration(rng.Intn(20)) * time.Millisecond
			switch r := rng.Intn(10); {
			case r < 5:
				for n := rng.Intn(8); n > 0; n-- {
					s.OnPacketSent(&SentPacket{PN: s.NextPN(), SentAt: now, Bytes: 1200, AckEliciting: rng.Intn(5) != 0})
				}
			case r < 8 && s.PeekPN() > 0:
				hi := uint64(rng.Intn(int(s.PeekPN())))
				lo := hi - uint64(rng.Intn(int(hi)+1))
				s.OnAck([]wire.AckRange{{Smallest: lo, Largest: hi}}, 0, now)
			case r < 9:
				s.OnLossTimeout(now)
			default:
				s.OnPTO(now)
			}
			if got, want := s.PTODeadline(), ptoDeadlineFullScan(s); got != want {
				t.Fatalf("trial %d step %d: PTODeadline %v, full scan %v", trial, step, got, want)
			}
		}
	}
}

func TestInFlightWalkTracksAcks(t *testing.T) {
	s := NewSpace(cc.NewRTTEstimator())
	sent(s, 0, 3)
	inFlight := func() []uint64 {
		var pns []uint64
		for _, sp := range s.SentFrom(0) {
			if sp.InFlight() {
				pns = append(pns, sp.PN)
			}
		}
		return pns
	}
	if got := inFlight(); !slices.Equal(got, []uint64{0, 1, 2}) {
		t.Fatalf("in flight %v, want 0,1,2", got)
	}
	s.OnAck([]wire.AckRange{{Smallest: 1, Largest: 1}}, 0, 10*time.Millisecond)
	if got := inFlight(); !slices.Equal(got, []uint64{0, 2}) {
		t.Fatalf("in flight after acking pn 1: %v, want 0,2", got)
	}
	if !s.HasUnacked() {
		t.Fatal("pn 0 and 2 are still outstanding")
	}
}

// A caller that remembers the next packet number it has not seen resumes
// there, whatever gc trimmed from the front of the ledger in the meantime.
func TestSentFromResumesAtCursor(t *testing.T) {
	s := NewSpace(cc.NewRTTEstimator())
	sent(s, 0, 5)
	pns := func(from uint64) []uint64 {
		var out []uint64
		for _, sp := range s.SentFrom(from) {
			out = append(out, sp.PN)
		}
		return out
	}
	if got := pns(3); !slices.Equal(got, []uint64{3, 4}) {
		t.Fatalf("from 3: %v, want 3,4", got)
	}
	cursor := s.PeekPN()
	if got := pns(cursor); len(got) != 0 {
		t.Fatalf("nothing sent since the cursor, got %v", got)
	}
	s.OnAck([]wire.AckRange{{Smallest: 0, Largest: 2}}, 0, 10*time.Millisecond) // gc trims 0..2
	sent(s, 20*time.Millisecond, 2)
	if got := pns(cursor); !slices.Equal(got, []uint64{5, 6}) {
		t.Fatalf("from the cursor after a trim: %v, want 5,6", got)
	}
	if got := pns(0); !slices.Equal(got, []uint64{3, 4, 5, 6}) {
		t.Fatalf("from 0 after a trim: %v, want 3..6", got)
	}
}

func TestInFlightExcludesNonEliciting(t *testing.T) {
	s := NewSpace(cc.NewRTTEstimator())
	sp := &SentPacket{PN: s.NextPN(), SentAt: 0, Bytes: 50, AckEliciting: false}
	s.OnPacketSent(sp)
	if sp.InFlight() {
		t.Fatal("ack-only packets are not in flight")
	}
	if s.HasUnacked() {
		t.Fatal("ack-only packets are not in flight")
	}
	if s.PTODeadline() != 0 {
		t.Fatal("no PTO for non-eliciting packets")
	}
}

func TestGCTrimsLedger(t *testing.T) {
	s := NewSpace(cc.NewRTTEstimator())
	for round := 0; round < 50; round++ {
		pkts := sent(s, time.Duration(round)*time.Millisecond, 4)
		s.OnAck([]wire.AckRange{{Smallest: pkts[0].PN, Largest: pkts[3].PN}}, 0,
			time.Duration(round+1)*time.Millisecond)
	}
	if len(s.sent) != 0 {
		t.Fatalf("gc left %d entries", len(s.sent))
	}
	for pn := uint64(0); pn < s.PeekPN(); pn++ {
		if i := s.search(pn); i < len(s.sent) {
			t.Fatalf("trimmed pn %d still found at index %d", pn, i)
		}
	}
	if s.Stats().AckedPackets != 200 {
		t.Fatalf("acked counter %d", s.Stats().AckedPackets)
	}
}

// naiveAck is the per-PN reference model for onAck's range/ledger
// intersection: which of the tracked packets a set of ranges newly
// acknowledges, ascending. It must be called before the real OnAck mutates
// the packets.
func naiveAck(tracked []*SentPacket, ranges []wire.AckRange) []uint64 {
	var pns []uint64
	for _, sp := range tracked {
		if sp.acked || sp.declaredLost {
			continue
		}
		for _, r := range ranges {
			if sp.PN >= r.Smallest && sp.PN <= r.Largest {
				pns = append(pns, sp.PN)
				break
			}
		}
	}
	return pns
}

func ackedPNs(res AckResult) []uint64 {
	var pns []uint64
	for _, sp := range res.Acked {
		pns = append(pns, sp.PN)
	}
	return pns
}

// A peer may name any range it likes; the cost of an ACK is bounded by the
// packets we track, not by the range. A per-PN walk of this one would not
// return within the test timeout.
func TestHugeAckRangeCostsTrackedPacketsOnly(t *testing.T) {
	exact := NewSpace(cc.NewRTTEstimator())
	huge := NewSpace(cc.NewRTTEstimator())
	sent(exact, 0, 5)
	sent(huge, 0, 5)
	want := exact.OnAck([]wire.AckRange{{Smallest: 0, Largest: 4}}, 0, 10*time.Millisecond)
	got := huge.OnAck([]wire.AckRange{{Smallest: 0, Largest: 1 << 62}}, 0, 10*time.Millisecond)
	if !slices.Equal(ackedPNs(got), ackedPNs(want)) || len(got.Acked) != 5 {
		t.Fatalf("huge range acked %v, exact range acked %v", ackedPNs(got), ackedPNs(want))
	}
	if huge.HasUnacked() {
		t.Fatal("every tracked packet was covered")
	}
}

func TestMultiRangeAckMatchesNaiveReference(t *testing.T) {
	s := NewSpace(cc.NewRTTEstimator())
	pkts := sent(s, 0, 20)
	// Acking pn 1 then pn 8 declares pn 0 and 2..5 lost by packet threshold
	// and gc trims all of 0..5, so the ledger starts at pn 6 and holds an
	// acked entry (8) between in-flight ones.
	s.OnAck([]wire.AckRange{{Smallest: 1, Largest: 1}}, 0, 10*time.Millisecond)
	s.OnAck([]wire.AckRange{{Smallest: 8, Largest: 8}}, 0, 11*time.Millisecond)

	// Descending, gapped; covers unknown PNs above the ledger (20..30), an
	// already-acked packet (8), and a range that starts below the trimmed
	// front over already-lost packets (0, 2..5).
	ranges := []wire.AckRange{
		{Smallest: 17, Largest: 30},
		{Smallest: 12, Largest: 14},
		{Smallest: 8, Largest: 10},
		{Smallest: 0, Largest: 6},
	}
	want := naiveAck(pkts, ranges)
	got := ackedPNs(s.OnAck(ranges, 0, 20*time.Millisecond))
	if !slices.Equal(got, want) {
		t.Fatalf("acked %v, reference %v", got, want)
	}
	if want := []uint64{6, 9, 10, 12, 13, 14, 17, 18, 19}; !slices.Equal(got, want) {
		t.Fatalf("acked %v, want %v", got, want)
	}
	if s.LargestAcked() != 30 {
		t.Fatalf("largestAcked = %d, want the frame's largest", s.LargestAcked())
	}
}

func TestStatsCounting(t *testing.T) {
	s := NewSpace(cc.NewRTTEstimator())
	sent(s, 0, 5)
	s.OnAck([]wire.AckRange{{Smallest: 4, Largest: 4}}, 0, 20*time.Millisecond)
	st := s.Stats()
	if st.SentPackets != 5 || st.AckedPackets != 1 || st.LostPackets != 2 {
		t.Fatalf("stats %+v", st)
	}
	s.OnPTO(30 * time.Millisecond)
	if s.Stats().PTOs != 1 {
		t.Fatal("pto counter")
	}
}

func TestNoRTTSampleWhenLargestNotNewlyAcked(t *testing.T) {
	rtt := cc.NewRTTEstimator()
	s := NewSpace(rtt)
	sent(s, 0, 3)
	s.OnAck([]wire.AckRange{{Smallest: 2, Largest: 2}}, 0, 30*time.Millisecond)
	first := rtt.Smoothed()
	// Ack covering already-acked largest: no new sample.
	res := s.OnAck([]wire.AckRange{{Smallest: 0, Largest: 2}}, 0, 90*time.Millisecond)
	if res.LatestRTT != 0 {
		t.Fatal("no RTT sample for stale largest")
	}
	if rtt.Smoothed() != first {
		t.Fatal("estimator should be unchanged")
	}
	if len(res.Acked) != 2 {
		t.Fatalf("acked %d, want 2 (pn 0,1)", len(res.Acked))
	}
}

// testMeta stands in for the transport's per-packet metadata: storage of its
// own that must be recycled with the record.
type testMeta struct {
	chunks   []int
	poisoned int
}

func (m *testMeta) Poison() { m.poisoned++; m.chunks = m.chunks[:0] }

// acquireAndSend sends one packet the way the transport does: a record from
// the pool, its Meta created on first use and kept from then on.
func acquireAndSend(s *Space, at time.Duration) *SentPacket {
	sp := Acquire()
	if sp.Meta == nil {
		sp.Meta = &testMeta{}
	}
	m := sp.Meta.(*testMeta)
	m.chunks = append(m.chunks[:0], int(s.PeekPN()))
	sp.PN, sp.SentAt, sp.Bytes, sp.AckEliciting = s.NextPN(), at, 1200, true
	s.OnPacketSent(sp)
	return sp
}

// holdPool keeps every record given back to the pool where Acquire finds it
// until the test ends: the collector, which empties the pool, is off, and one
// P runs the test, since each P's private pool slot is invisible from the
// others. Under -race the pool still drops records on purpose.
func holdPool(t *testing.T) {
	procs, gc := runtime.GOMAXPROCS(1), debug.SetGCPercent(-1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	})
}

// takeBack takes records from the pool until it hands out want or has to make
// a new one, and reports whether it found want. What earlier tests left in the
// pool is taken along the way and left to the collector.
func takeBack(want *SentPacket) bool {
	for made := RecordsMade(); RecordsMade() == made; {
		if Acquire() == want {
			return true
		}
	}
	return false
}

// TestRecordRecycledAfterResultExpires walks one record through its life: the
// AckResult that resolves it still names it intact although gc has trimmed it,
// the pool does not hand it out while that result is live, the next
// loss-detection call expires the result and poisons the record under
// xlinkdebug, and then it comes back blank with its Meta. A record the caller
// built itself never enters the pool.
func TestRecordRecycledAfterResultExpires(t *testing.T) {
	holdPool(t)
	s := NewSpace(cc.NewRTTEstimator())
	own := sent(s, 0, 1)[0]
	rec := acquireAndSend(s, 0)
	meta := rec.Meta.(*testMeta)

	res := s.OnAck([]wire.AckRange{{Smallest: 0, Largest: 1}}, 0, 10*time.Millisecond)
	if len(res.Acked) != 2 || res.Acked[1] != rec || len(s.SentFrom(0)) != 0 {
		t.Fatalf("acked %d, ledger %d", len(res.Acked), len(s.SentFrom(0)))
	}
	if rec.PN != 1 || len(meta.chunks) != 1 || meta.poisoned != 0 {
		t.Fatalf("record disturbed while its AckResult is live: PN %d, chunks %v, poisoned %d", rec.PN, meta.chunks, meta.poisoned)
	}
	if takeBack(rec) {
		t.Fatal("record handed out again while its AckResult is live")
	}

	s.OnLossTimeout(11 * time.Millisecond) // any loss-detection call expires the result
	if assert.Enabled && (rec.PN != recycledPN || meta.poisoned != 1 || len(meta.chunks) != 0) {
		t.Fatalf("record in the pool not poisoned: PN %#x, poisoned %d, chunks %v", rec.PN, meta.poisoned, meta.chunks)
	}
	if !takeBack(rec) {
		if raceEnabled {
			t.Skip("-race: the pool dropped the record on purpose")
		}
		t.Fatal("the expired result's record did not go back to the pool")
	}
	if rec.Meta != meta || rec.PN != 0 || rec.acked || rec.AckEliciting || rec.InFlight() {
		t.Fatalf("recycled record not blank with its Meta: %+v", rec)
	}
	if takeBack(own) {
		t.Fatal("a record the caller built went into the pool")
	}
}

// TestReclaimFreesTheResultsRecords: a caller done with a loss-detection
// result gives the records that call retired back to the pool itself, with
// Reclaim, and the next Acquire — with no loss-detection call in between —
// hands one out again. This is how the transport's response to an ACK reuses
// the records the ACK resolved. A second Reclaim gives nothing back twice.
func TestReclaimFreesTheResultsRecords(t *testing.T) {
	holdPool(t)
	s := NewSpace(cc.NewRTTEstimator())
	rec := acquireAndSend(s, 0)
	res := s.OnAck([]wire.AckRange{{Smallest: 0, Largest: 0}}, 0, 10*time.Millisecond)
	if len(res.Acked) != 1 || res.Acked[0] != rec || takeBack(rec) {
		t.Fatalf("acked %d, or the record was handed out while its result is live", len(res.Acked))
	}
	s.Reclaim()
	if assert.Enabled && rec.PN != recycledPN {
		t.Fatalf("record freed by Reclaim not poisoned: PN %#x", rec.PN)
	}
	if !takeBack(rec) {
		if raceEnabled {
			t.Skip("-race: the pool dropped the record on purpose")
		}
		t.Fatal("Acquire after Reclaim did not reuse the record")
	}
	s.Reclaim() // nothing retired: a no-op
	if takeBack(rec) {
		t.Fatal("a second Reclaim gave the record, now in use again, back to the pool")
	}
}

// TestRecordsMadeBoundedByPeakTracked drives a 32 MiB session's worth of
// packets (24 000 of them) through one Space on an ack clock with reordering
// losses, windows growing and shrinking, reclaiming each result once it is
// read, as the transport does: with the pool held, no more records are made
// than the ledger's high-water mark — every other packet rides a recycled one.
// Under -race the pool drops records on purpose and only the ledger checks
// hold.
func TestRecordsMadeBoundedByPeakTracked(t *testing.T) {
	holdPool(t)
	made := RecordsMade()
	s := NewSpace(cc.NewRTTEstimator())
	const total = 24_000
	now := time.Duration(0)
	ledgerPeak, acked := 0, uint64(0)
	for s.PeekPN() < total {
		// A window that breathes between 8 and 520 packets.
		window := 8 + int(s.PeekPN()/40)%513
		for len(s.SentFrom(0)) < window && s.PeekPN() < total {
			acquireAndSend(s, now)
		}
		ledgerPeak = max(ledgerPeak, len(s.SentFrom(0)))
		now += 10 * time.Millisecond
		// Acknowledge the older half of what is outstanding, skipping every
		// 17th packet so that packet-threshold loss detection runs too.
		out := s.SentFrom(0)
		lo, hi := out[0].PN, out[len(out)/2].PN
		var ranges []wire.AckRange
		for pn := hi; ; pn-- {
			if pn%17 != 0 {
				if n := len(ranges); n > 0 && ranges[n-1].Smallest == pn+1 {
					ranges[n-1].Smallest = pn
				} else {
					ranges = append(ranges, wire.AckRange{Smallest: pn, Largest: pn})
				}
			}
			if pn == lo {
				break
			}
		}
		res := s.OnAck(ranges, 0, now)
		acked += uint64(len(res.Acked))
		s.Reclaim()
	}
	s.DeclareAllLost(now)
	s.OnLossTimeout(now)
	made = RecordsMade() - made
	if len(s.SentFrom(0)) != 0 || acked < total*9/10 {
		t.Fatalf("after the session: ledger %d, %d of %d packets acked", len(s.SentFrom(0)), acked, total)
	}
	if made > uint64(ledgerPeak) && !raceEnabled {
		t.Fatalf("%d packets made %d records, ledger peak %d", total, made, ledgerPeak)
	}
	t.Logf("%d packets, %d acked, ledger peak %d, %d records made", total, acked, ledgerPeak, made)
}
