package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestParseAndWriteRoundTrip(t *testing.T) {
	in := "# comment\n0\n5\n5\n12\n\n30\n"
	tr, err := Parse("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.DeliveriesMS) != 5 {
		t.Fatalf("parsed %d entries, want 5", len(tr.DeliveriesMS))
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := Parse("t2", &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.DeliveriesMS {
		if tr.DeliveriesMS[i] != tr2.DeliveriesMS[i] {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("bad", strings.NewReader("abc\n")); err == nil {
		t.Fatal("non-numeric line should fail")
	}
	if _, err := Parse("empty", strings.NewReader("")); err == nil {
		t.Fatal("empty trace should fail")
	}
	if _, err := Parse("unsorted", strings.NewReader("5\n3\n")); err == nil {
		t.Fatal("unsorted trace should fail")
	}
}

func TestConstantRateThroughput(t *testing.T) {
	tr := ConstantRate("c", 12, 2*time.Second) // 12 Mbit/s
	got := tr.MeanThroughputBps() / 1e6
	if math.Abs(got-12) > 0.5 {
		t.Fatalf("mean throughput = %.2f Mbps, want ~12", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConstantRateZero(t *testing.T) {
	tr := ConstantRate("z", 0, time.Second)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.DeliveriesMS) != 1 {
		t.Fatal("zero-rate trace should have a single sentinel opportunity")
	}
}

func TestFromRateFuncMatchesConstant(t *testing.T) {
	tr := FromRateFunc("f", time.Second, func(time.Duration) float64 { return 24 })
	got := tr.MeanThroughputBps() / 1e6
	if math.Abs(got-24) > 1 {
		t.Fatalf("rate-func throughput = %.2f, want ~24", got)
	}
}

func TestWalkingWiFiHasOutage(t *testing.T) {
	tr := WalkingWiFi(sim.NewRNG(1), 3*time.Second)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	_, mbps := tr.ThroughputSeries(100 * time.Millisecond)
	// The outage window is 55%-75% of the duration: 1.65s-2.25s.
	var outageMax float64
	for i := 17; i <= 21 && i < len(mbps); i++ {
		if mbps[i] > outageMax {
			outageMax = mbps[i]
		}
	}
	if outageMax > 2.0 {
		t.Fatalf("outage window peak %.1f Mbps, want near zero", outageMax)
	}
	var preOutage float64
	for i := 2; i < 15 && i < len(mbps); i++ {
		preOutage += mbps[i]
	}
	if preOutage/13 < 5 {
		t.Fatalf("pre-outage mean %.1f Mbps, want healthy link", preOutage/13)
	}
}

func TestWalkingLTEStable(t *testing.T) {
	tr := WalkingLTE(sim.NewRNG(1), 3*time.Second)
	_, mbps := tr.ThroughputSeries(200 * time.Millisecond)
	s := stats.Summarize(mbps[:len(mbps)-1])
	if s.Min < 2 {
		t.Fatalf("LTE trace dipped to %.1f Mbps; should stay stable", s.Min)
	}
}

func TestExtremeMobilitySet(t *testing.T) {
	pairs := ExtremeMobilitySet(sim.NewRNG(3), 10, 30*time.Second)
	if len(pairs) != 10 {
		t.Fatalf("want 10 pairs, got %d", len(pairs))
	}
	for _, p := range pairs {
		if err := p.Cellular.Validate(); err != nil {
			t.Fatalf("%s cellular: %v", p.Name, err)
		}
		if err := p.WiFi.Validate(); err != nil {
			t.Fatalf("%s wifi: %v", p.Name, err)
		}
	}
	// Determinism: same seed gives same traces.
	pairs2 := ExtremeMobilitySet(sim.NewRNG(3), 10, 30*time.Second)
	if len(pairs2[0].Cellular.DeliveriesMS) != len(pairs[0].Cellular.DeliveriesMS) {
		t.Fatal("trace generation not deterministic")
	}
}

func TestDelayModelMediansMatchPaper(t *testing.T) {
	rng := sim.NewRNG(11)
	sample := func(m DelayModel) []float64 {
		out := make([]float64, 20000)
		for i := range out {
			out[i] = float64(m.SampleRTT(rng)) / float64(time.Millisecond)
		}
		return out
	}
	lte := stats.Summarize(sample(DelayLTE))
	wifi := stats.Summarize(sample(DelayWiFi))
	sa := stats.Summarize(sample(Delay5GSA))
	// Sec 3.2: LTE median = 2.7x WiFi, 5.5x 5G SA.
	if r := lte.P50 / wifi.P50; r < 2.4 || r > 3.0 {
		t.Fatalf("LTE/WiFi median ratio = %.2f, want ~2.7", r)
	}
	if r := lte.P50 / sa.P50; r < 4.9 || r > 6.1 {
		t.Fatalf("LTE/5GSA median ratio = %.2f, want ~5.5", r)
	}
	// p90 ratio ~3.3x WiFi.
	if r := lte.P90 / wifi.P90; r < 2.6 || r > 4.0 {
		t.Fatalf("LTE/WiFi p90 ratio = %.2f, want ~3.3", r)
	}
}

func TestPrimaryPreferenceOrdering(t *testing.T) {
	if !(Tech5GSA.PrimaryPreference() < Tech5GNSA.PrimaryPreference() &&
		Tech5GNSA.PrimaryPreference() < TechWiFi.PrimaryPreference() &&
		TechWiFi.PrimaryPreference() < TechLTE.PrimaryPreference()) {
		t.Fatal("primary preference order must be 5GSA > 5GNSA > WiFi > LTE")
	}
}

func TestCrossISPInflation(t *testing.T) {
	d := 100 * time.Millisecond
	if got := InflateCrossISP(d, ISPA, ISPA); got != d {
		t.Fatal("same-ISP should not inflate")
	}
	if got := InflateCrossISP(d, ISPB, ISPC); got != 154*time.Millisecond {
		t.Fatalf("B->C inflation = %v, want 154ms", got)
	}
	if ISPB.String() != "B" {
		t.Fatal("ISP label")
	}
}

func TestTechnologyString(t *testing.T) {
	for tech, want := range map[Technology]string{
		Tech5GSA: "5G-SA", Tech5GNSA: "5G-NSA", TechWiFi: "WiFi", TechLTE: "LTE",
	} {
		if tech.String() != want {
			t.Fatalf("tech %d string = %s", tech, tech.String())
		}
	}
	if Technology(99).String() != "unknown" {
		t.Fatal("unknown technology label")
	}
}

// TestPropertyDeliveriesMonotone: a synthesized trace's delivery
// opportunities never go back in time and stay within its period, which is
// what lets a link replay it as a cursor that only moves forward.
func TestPropertyDeliveriesMonotone(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		tr := WalkingWiFi(sim.NewRNG(seed), 3*time.Second)
		if len(tr.DeliveriesMS) == 0 {
			t.Fatalf("seed %d: no deliveries", seed)
		}
		for i := 1; i < len(tr.DeliveriesMS); i++ {
			if tr.DeliveriesMS[i] < tr.DeliveriesMS[i-1] {
				t.Fatalf("seed %d: delivery %d at %d ms before the one at %d ms", seed, i, tr.DeliveriesMS[i], tr.DeliveriesMS[i-1])
			}
		}
		if last := tr.DeliveriesMS[len(tr.DeliveriesMS)-1]; last > tr.Period() {
			t.Fatalf("seed %d: delivery at %d ms beyond the %d ms period", seed, last, tr.Period())
		}
	}
}

func TestThroughputSeriesCoversPeriod(t *testing.T) {
	tr := ConstantRate("t", 10, time.Second)
	times, mbps := tr.ThroughputSeries(100 * time.Millisecond)
	if len(times) != len(mbps) {
		t.Fatal("length mismatch")
	}
	if len(times) < 10 {
		t.Fatalf("series too short: %d", len(times))
	}
	for _, m := range mbps[:10] {
		if math.Abs(m-10) > 2 {
			t.Fatalf("bucket throughput %.1f, want ~10", m)
		}
	}
}

func TestLoadSaveFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/trace.txt"
	tr := ConstantRate("file", 6, time.Second)
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.DeliveriesMS) != len(tr.DeliveriesMS) {
		t.Fatalf("loaded %d entries, want %d", len(got.DeliveriesMS), len(tr.DeliveriesMS))
	}
	if got.Name != "trace.txt" {
		t.Fatalf("name %q", got.Name)
	}
	if _, err := LoadFile(dir + "/missing.txt"); err == nil {
		t.Fatal("missing file must error")
	}
}
