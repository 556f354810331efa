// Package trace implements Mahimahi-style packet-delivery traces, synthetic
// trace generators for the wireless environments the paper measures
// (campus-walk Wi-Fi/LTE, subway, high-speed rail), per-technology path
// delay models, and the cross-ISP delay inflation matrix from Appendix A.
//
// A packet-delivery trace is the Mahimahi link model: a sorted list of
// millisecond timestamps, each of which is an opportunity to deliver one
// MTU-sized (1500 byte) packet. When the trace is exhausted it wraps around,
// shifted by its period. This is exactly the format mpshell replays.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// MTU is the delivery-opportunity size in bytes, matching Mahimahi.
const MTU = 1500

// Trace is a packet-delivery trace: sorted delivery opportunities in
// milliseconds since the start of the trace. The trace repeats with period
// PeriodMS (which must be >= the last timestamp).
type Trace struct {
	// Name labels the trace in experiment output.
	Name string
	// DeliveriesMS are sorted delivery-opportunity timestamps in ms.
	DeliveriesMS []uint64
	// PeriodMS is the wrap-around period in ms. Zero means "last
	// timestamp", matching Mahimahi's convention.
	PeriodMS uint64
}

// ErrEmptyTrace is returned when parsing or using a trace with no delivery
// opportunities.
var ErrEmptyTrace = errors.New("trace: no delivery opportunities")

// Period returns the effective wrap-around period in ms.
func (t *Trace) Period() uint64 {
	if t.PeriodMS > 0 {
		return t.PeriodMS
	}
	if n := len(t.DeliveriesMS); n > 0 {
		p := t.DeliveriesMS[n-1]
		if p == 0 {
			p = 1
		}
		return p
	}
	return 1
}

// Validate checks trace well-formedness: non-empty, sorted, within period.
func (t *Trace) Validate() error {
	if len(t.DeliveriesMS) == 0 {
		return ErrEmptyTrace
	}
	for i := 1; i < len(t.DeliveriesMS); i++ {
		if t.DeliveriesMS[i] < t.DeliveriesMS[i-1] {
			return fmt.Errorf("trace %q: timestamps not sorted at index %d", t.Name, i)
		}
	}
	if t.PeriodMS > 0 && t.DeliveriesMS[len(t.DeliveriesMS)-1] > t.PeriodMS {
		return fmt.Errorf("trace %q: timestamp beyond period", t.Name)
	}
	return nil
}

// MeanThroughputBps returns the average throughput of the trace in bits/s.
func (t *Trace) MeanThroughputBps() float64 {
	period := t.Period()
	if period == 0 || len(t.DeliveriesMS) == 0 {
		return 0
	}
	bits := float64(len(t.DeliveriesMS)) * MTU * 8
	return bits / (float64(period) / 1000)
}

// ThroughputSeries returns per-window throughput in Mbit/s sampled over one
// period, for figure-style output (Fig 1a/1b, Fig 15).
func (t *Trace) ThroughputSeries(window time.Duration) (times []time.Duration, mbps []float64) {
	period := time.Duration(t.Period()) * time.Millisecond
	if window <= 0 {
		window = 100 * time.Millisecond
	}
	counts := make(map[int]int)
	for _, ms := range t.DeliveriesMS {
		bucket := int(time.Duration(ms) * time.Millisecond / window)
		counts[bucket]++
	}
	n := int(period/window) + 1
	for i := 0; i < n; i++ {
		times = append(times, time.Duration(i)*window)
		bits := float64(counts[i]) * MTU * 8
		mbps = append(mbps, bits/window.Seconds()/1e6)
	}
	return times, mbps
}

// Parse reads a Mahimahi-format trace (one millisecond timestamp per line;
// blank lines and #-comments ignored) from r.
func Parse(name string, r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	tr := &Trace{Name: name}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace %q line %d: %w", name, lineNo, err)
		}
		tr.DeliveriesMS = append(tr.DeliveriesMS, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// Write emits the trace in Mahimahi format.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, ms := range t.DeliveriesMS {
		if _, err := fmt.Fprintln(bw, ms); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ConstantRate builds a trace delivering rate Mbit/s uniformly for the
// given duration. Rates below one MTU per duration produce a single
// opportunity.
func ConstantRate(name string, mbps float64, duration time.Duration) *Trace {
	tr := &Trace{Name: name, PeriodMS: uint64(duration / time.Millisecond)}
	if mbps <= 0 || duration <= 0 {
		tr.DeliveriesMS = []uint64{0}
		if tr.PeriodMS == 0 {
			tr.PeriodMS = 1
		}
		return tr
	}
	bytesPerMS := mbps * 1e6 / 8 / 1000
	var acc float64
	for ms := uint64(0); ms < tr.PeriodMS; ms++ {
		acc += bytesPerMS
		for acc >= MTU {
			tr.DeliveriesMS = append(tr.DeliveriesMS, ms)
			acc -= MTU
		}
	}
	if len(tr.DeliveriesMS) == 0 {
		tr.DeliveriesMS = []uint64{0}
	}
	return tr
}

// FromRateFunc builds a trace from a time-varying rate function: rate(t) in
// Mbit/s evaluated each millisecond over duration.
func FromRateFunc(name string, duration time.Duration, rate func(t time.Duration) float64) *Trace {
	tr := &Trace{Name: name, PeriodMS: uint64(duration / time.Millisecond)}
	var acc float64
	for ms := uint64(0); ms < tr.PeriodMS; ms++ {
		mbps := rate(time.Duration(ms) * time.Millisecond)
		if mbps < 0 {
			mbps = 0
		}
		acc += mbps * 1e6 / 8 / 1000
		for acc >= MTU {
			tr.DeliveriesMS = append(tr.DeliveriesMS, ms)
			acc -= MTU
		}
	}
	if len(tr.DeliveriesMS) == 0 {
		tr.DeliveriesMS = []uint64{0}
	}
	return tr
}

// LoadFile parses a Mahimahi-format trace from a file.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := filepath.Base(path)
	return Parse(name, f)
}

// SaveFile writes the trace to a file in Mahimahi format.
func (t *Trace) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.Write(f)
}
