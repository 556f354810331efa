package obs

import (
	"testing"
	"time"
)

func sampleScorecard() Scorecard {
	sc := Scorecard{
		RCT: 1200 * time.Millisecond, Completed: true,
		RebufferTime: 300 * time.Millisecond, RebufferCount: 2,
		QoEDecisions: 40, QoEEnables: 12, QoETransitions: 5,
		StreamBytes: 1 << 20, RtxBytes: 4096, ReinjBytes: 8192, FECRecoveredBytes: 2048,
		CloseCode: 0, NumPaths: 2,
	}
	sc.Paths[0] = PathScore{ID: 0, SentPackets: 900, LostPackets: 9, SentBytes: 800_000,
		ReinjBytes: 8192, UtilPermille: 760, LossPermille: 10}
	sc.Paths[1] = PathScore{ID: 1, SentPackets: 300, LostPackets: 30, SentBytes: 250_000,
		UtilPermille: 240, LossPermille: 100}
	return sc
}

// TestScorecardRoundTrip: emit → Parse → ScorecardFromEvent reproduces the
// value exactly, which is what the fleet-aggregation mode depends on.
func TestScorecardRoundTrip(t *testing.T) {
	tr := NewTrace("sc")
	want := sampleScorecard()
	tr.Origin("server").Scorecard(30*time.Second, &want)

	evs, err := ParseBytes(tr.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Name != EvScorecard {
		t.Fatalf("events = %+v", evs)
	}
	got, ok := ScorecardFromEvent(evs[0])
	if !ok {
		t.Fatal("ScorecardFromEvent rejected a scorecard event")
	}
	if got != want {
		t.Errorf("round trip:\ngot  %+v\nwant %+v", got, want)
	}
	if _, ok := ScorecardFromEvent(Event{Name: EvPacketSent}); ok {
		t.Error("ScorecardFromEvent accepted a non-scorecard event")
	}
}

// TestMergeScorecardOrderDeterminism is the per-session half of satellite
// 4: folding the same set of scorecards into registries in different
// orders yields byte-identical exposition.
func TestMergeScorecardOrderDeterminism(t *testing.T) {
	cards := make([]Scorecard, 0, 20)
	for i := 0; i < 20; i++ {
		sc := sampleScorecard()
		sc.RCT += time.Duration(i*137) * time.Millisecond
		sc.RebufferTime = time.Duration(i*53) * time.Millisecond
		sc.Completed = i%3 != 0
		sc.StreamBytes += uint64(i) << 12
		cards = append(cards, sc)
	}
	dump := func(order func(i int) int) string {
		r := NewRegistry()
		for i := range cards {
			r.MergeScorecard(&cards[order(i)])
		}
		return dumpString(r)
	}
	forward := dump(func(i int) int { return i })
	reverse := dump(func(i int) int { return len(cards) - 1 - i })
	if forward != reverse {
		t.Errorf("merge order changed exposition:\n%s\nvs\n%s", forward, reverse)
	}
	if forward == "" {
		t.Fatal("empty exposition")
	}
}

// TestMergeScorecardFamilies spot-checks the catalog families a merge
// feeds.
func TestMergeScorecardFamilies(t *testing.T) {
	r := NewRegistry()
	sc := sampleScorecard()
	r.MergeScorecard(&sc)
	checks := []struct {
		name MetricName
		want uint64
	}{
		{MetricSessions, 1},
		{MetricSessionsCompleted, 1},
		{MetricRebuffers, 2},
		{MetricStreamBytes, 1 << 20},
		{MetricRtxBytes, 4096},
		{MetricReinjectedBytes, 8192},
		{MetricFECRecoveredBytes, 2048},
		{MetricQoEDecisions, 40},
		{MetricPathSentPackets, 1200},
		{MetricPathLostPackets, 39},
	}
	for _, c := range checks {
		if got := r.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if got := r.Histogram(MetricSessionRCTSeconds, RCTBuckets()).Count(); got != 1 {
		t.Errorf("rct histogram count = %d, want 1", got)
	}
}
