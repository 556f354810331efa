package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentileBasics(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {-5, 1}, {200, 5},
	}
	for _, c := range cases {
		if got := Percentile(vals, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolation(t *testing.T) {
	vals := []float64{10, 20}
	if got := Percentile(vals, 50); got != 15 {
		t.Fatalf("p50 of {10,20} = %v, want 15", got)
	}
	if got := Percentile(vals, 90); math.Abs(got-19) > 1e-9 {
		t.Fatalf("p90 of {10,20} = %v, want 19", got)
	}
}

func TestPercentileEmpty(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty input should give NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	vals := []float64{3, 1, 2}
	Percentile(vals, 50)
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Fatal("input was mutated")
	}
}

func TestSummarize(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	s := Summarize(vals)
	if s.N != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.Mean-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", s.Mean)
	}
	if s.P50 < 50 || s.P50 > 51 {
		t.Fatalf("p50 = %v", s.P50)
	}
	if s.P99 < 99 || s.P99 > 100 {
		t.Fatalf("p99 = %v", s.P99)
	}
	if !strings.Contains(s.String(), "n=100") {
		t.Fatal("String() missing n")
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(2.0, 1.0); got != 50 {
		t.Fatalf("Improvement = %v, want 50", got)
	}
	if got := Improvement(1.0, 1.28); math.Abs(got+28) > 1e-9 {
		t.Fatalf("Improvement = %v, want -28", got)
	}
	if got := Improvement(0, 5); got != 0 {
		t.Fatal("zero baseline should return 0")
	}
}

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	ts.Add(0, 1)
	ts.Add(time.Second, 2)
	ts.Add(3*time.Second, 3)
	if got := ts.At(500*time.Millisecond, -1); got != 1 {
		t.Fatalf("At(0.5s) = %v, want 1", got)
	}
	if got := ts.At(2*time.Second, -1); got != 2 {
		t.Fatalf("At(2s) = %v, want 2", got)
	}
	if got := ts.At(-time.Second, -1); got != -1 {
		t.Fatal("before first sample should return default")
	}
	rs := ts.Resample(time.Second, 4*time.Second, 0)
	if len(rs.Times) != 5 {
		t.Fatalf("resample length = %d, want 5", len(rs.Times))
	}
	if rs.Values[4] != 3 {
		t.Fatal("resample should carry last value forward")
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Header: []string{"Days", "Improv"}}
	tab.AddRow("1", "27.00")
	tab.AddRow("2", "48.41")
	out := tab.String()
	if !strings.Contains(out, "Days") || !strings.Contains(out, "48.41") {
		t.Fatalf("bad table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table should have 4 lines, got %d", len(lines))
	}
}

func TestPropertyPercentileWithinRange(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		vals := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		p = math.Mod(math.Abs(p), 100)
		got := Percentile(vals, p)
		return got >= Min(vals)-1e-9 && got <= Max(vals)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		vals := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		sort.Float64s(vals)
		last := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := Percentile(vals, p)
			if v < last-1e-9 {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
