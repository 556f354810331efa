// Package stats provides the small statistical toolkit used by the
// experiment harnesses: percentiles, summaries, CDFs, and time series
// buckets. All functions are deterministic and allocation-conscious.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Percentile returns the p-th percentile (0..100) of values using linear
// interpolation between closest ranks. It returns NaN for an empty input.
// The input slice is not modified.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean, or NaN for an empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Max returns the maximum, or NaN for an empty input.
func Max(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	m := values[0]
	for _, v := range values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum, or NaN for an empty input.
func Min(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	m := values[0]
	for _, v := range values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// StdDev returns the population standard deviation, or NaN for an empty
// input.
func StdDev(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	mean := Mean(values)
	var ss float64
	for _, v := range values {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(values)))
}

// Summary holds the descriptive statistics the paper reports for a metric.
type Summary struct {
	N      int
	Mean   float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P95    float64
	P99    float64
	StdDev float64
}

// Summarize computes a Summary of values.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		nan := math.NaN()
		return Summary{Mean: nan, Min: nan, Max: nan, P50: nan, P90: nan, P95: nan, P99: nan, StdDev: nan}
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	return Summary{
		N:      len(values),
		Mean:   Mean(values),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P50:    percentileSorted(sorted, 50),
		P90:    percentileSorted(sorted, 90),
		P95:    percentileSorted(sorted, 95),
		P99:    percentileSorted(sorted, 99),
		StdDev: StdDev(values),
	}
}

// String renders the summary compactly for harness output.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p90=%.3f p95=%.3f p99=%.3f max=%.3f",
		s.N, s.Mean, s.P50, s.P90, s.P95, s.P99, s.Max)
}

// Improvement returns the relative improvement of measured over baseline in
// percent, where lower values are better (latency-like metrics). A positive
// result means measured improved on baseline.
func Improvement(baseline, measured float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - measured) / baseline * 100
}

// TimeSeries accumulates (time, value) samples for figure-style outputs.
type TimeSeries struct {
	Name   string
	Times  []time.Duration
	Values []float64
}

// Add appends a sample.
func (ts *TimeSeries) Add(t time.Duration, v float64) {
	ts.Times = append(ts.Times, t)
	ts.Values = append(ts.Values, v)
}

// At returns the most recent value at or before t, or def if none.
func (ts *TimeSeries) At(t time.Duration, def float64) float64 {
	idx := sort.Search(len(ts.Times), func(i int) bool { return ts.Times[i] > t })
	if idx == 0 {
		return def
	}
	return ts.Values[idx-1]
}

// Resample returns the series sampled at a fixed step between 0 and end,
// carrying the last value forward.
func (ts *TimeSeries) Resample(step, end time.Duration, def float64) *TimeSeries {
	out := &TimeSeries{Name: ts.Name}
	for t := time.Duration(0); t <= end; t += step {
		out.Add(t, ts.At(t, def))
	}
	return out
}

// Table is a simple fixed-column text table for harness output, formatted
// in the style of the paper's tables.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for pad := len(c); pad < widths[i]; pad++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
