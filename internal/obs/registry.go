package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricName names a metric in the registry, following the Prometheus
// convention: `[a-zA-Z_:][a-zA-Z0-9_:]*`, with an optional `{label="value"}`
// suffix baked into the name string. All names recorded outside this
// package must be the registered Metric* constants below (optionally
// labeled via With), so the metric catalog stays a closed, greppable set
// just like the event taxonomy.
type MetricName string

// The metric catalog. trace_events_total is labeled per event name by the
// Trace emit path; the xlink_* families are bumped by MergeScorecard and
// the flight recorder as sessions close and anomalies fire.
const (
	// Per-event emit counters, labeled {name="<EventName>"}.
	MetricTraceEvents MetricName = "trace_events_total"
	// Session rollups (MergeScorecard).
	MetricSessions          MetricName = "xlink_sessions_total"
	MetricSessionsCompleted MetricName = "xlink_sessions_completed_total"
	MetricRebuffers         MetricName = "xlink_rebuffers_total"
	// Recovery-lane byte attribution: first-transmission stream bytes vs
	// the three recovery lanes (rtx, re-injection, FEC-recovered).
	MetricStreamBytes       MetricName = "xlink_stream_bytes_total"
	MetricRtxBytes          MetricName = "xlink_rtx_bytes_total"
	MetricReinjectedBytes   MetricName = "xlink_reinjected_bytes_total"
	MetricFECRecoveredBytes MetricName = "xlink_fec_recovered_bytes_total"
	// Alg. 1 double-threshold controller activity.
	MetricQoEDecisions   MetricName = "xlink_qoe_decisions_total"
	MetricQoEEnables     MetricName = "xlink_qoe_enables_total"
	MetricQoETransitions MetricName = "xlink_qoe_transitions_total"
	// Per-path delivery/loss volume.
	MetricPathSentPackets MetricName = "xlink_path_sent_packets_total"
	MetricPathLostPackets MetricName = "xlink_path_lost_packets_total"
	// Session distributions (log-bucketed histograms, seconds).
	MetricSessionRCTSeconds      MetricName = "xlink_session_rct_seconds"
	MetricSessionRebufferSeconds MetricName = "xlink_session_rebuffer_seconds"
	// Batched packet I/O (DESIGN.md §16): per-path batch-size distribution
	// (labeled {path="<id>"}) and SendBatch flush count.
	MetricBatchSize    MetricName = "xlink_batch_size"
	MetricBatchFlushes MetricName = "xlink_batch_flushes_total"
	// Flight-recorder anomaly triggers.
	MetricAnomalies MetricName = "xlink_anomalies_total"
	// Stream buffer occupancy gauges (DESIGN.md §17): bytes the connection's
	// send and receive stream buffers hold, and the most they ever held.
	MetricSendBufferedBytes MetricName = "xlink_send_buffered_bytes"
	MetricSendBufferedPeak  MetricName = "xlink_send_buffered_peak_bytes"
	MetricRecvBufferedBytes MetricName = "xlink_recv_buffered_bytes"
	MetricRecvBufferedPeak  MetricName = "xlink_recv_buffered_peak_bytes"
	// Stream halves the connection holds (DESIGN.md §17), labeled
	// {half="send"} and {half="recv"}: what it has open, not what it ever
	// carried.
	MetricOpenStreams MetricName = "xlink_open_streams"
)

// With returns the name with a `{label="value"}` suffix appended. It is the
// only sanctioned way to derive a labeled name from a catalog constant. It
// allocates; derive labeled names once at setup and cache the returned
// handle, not per record.
func (n MetricName) With(label, value string) MetricName {
	return n + MetricName(`{`+label+`="`+value+`"}`)
}

// Registry is the metrics registry: named counters, gauges and
// histograms with a deterministic text exposition dump. It is safe for
// concurrent use without external locking: lookup and creation take one
// lock, and the Counter/Gauge/Histogram handles record with atomics (zero
// allocation, no locks), so the record path never touches it. Each
// registry has one writer at a time in practice — a sim loop, a live
// shard, abtest's serial merge or an endpoint's gauge sets — and hot paths
// record through cached handles. Dump and Snapshot are weakly consistent
// under concurrent writes — each individual value is read atomically, but
// the set is not a single instant — and become exact once writers quiesce,
// which is when the deterministic tests read them.
type Registry struct {
	mu       sync.RWMutex
	counters map[MetricName]*Counter
	gauges   map[MetricName]*Gauge
	hists    map[MetricName]*Histogram
}

// NewRegistry creates an empty registry. Its maps are created lazily so an
// idle registry costs nothing beyond the struct itself.
func NewRegistry() *Registry { return &Registry{} }

// Counter is a monotonically increasing metric. The zero value is ready;
// all methods are atomic and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value, stored as float64 bits in one
// atomic word. The zero value is ready.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Counter returns the named counter, creating it at zero on first use.
// Callers should cache the handle: the record path on the handle is
// lock-free, while this lookup takes the registry lock.
func (r *Registry) Counter(name MetricName) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		if r.counters == nil {
			r.counters = make(map[MetricName]*Counter)
		}
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it at zero on first use.
func (r *Registry) Gauge(name MetricName) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		if r.gauges == nil {
			r.gauges = make(map[MetricName]*Gauge)
		}
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use. Later calls ignore bounds and return the existing
// histogram.
func (r *Registry) Histogram(name MetricName, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		if r.hists == nil {
			r.hists = make(map[MetricName]*Histogram)
		}
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// CounterSample is one counter in a Snapshot.
type CounterSample struct {
	Name  MetricName
	Value uint64
}

// GaugeSample is one gauge in a Snapshot.
type GaugeSample struct {
	Name  MetricName
	Value float64
}

// HistSample is one histogram in a Snapshot: per-bucket (non-cumulative)
// counts plus the totals.
type HistSample struct {
	Name   MetricName
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot is a point-in-time view of every metric, sorted by name within
// each kind — the stable form Dump renders and the /metrics handler serves.
type Snapshot struct {
	Counters []CounterSample
	Gauges   []GaugeSample
	Hists    []HistSample
}

// Snapshot collects every metric into a sorted, self-contained value. It
// takes the read lock only to walk the maps; the values are then read
// atomically off the handles. Weakly consistent under concurrent writes
// (see the Registry doc).
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	r.mu.RLock()
	for n, c := range r.counters {
		snap.Counters = append(snap.Counters, CounterSample{Name: n, Value: c.Value()})
	}
	for n, g := range r.gauges {
		snap.Gauges = append(snap.Gauges, GaugeSample{Name: n, Value: g.Value()})
	}
	for n, h := range r.hists {
		snap.Hists = append(snap.Hists, HistSample{
			Name: n, Bounds: h.Bounds(), Counts: h.BucketCounts(),
			Count: h.Count(), Sum: h.Sum(),
		})
	}
	r.mu.RUnlock()
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Hists, func(i, j int) bool { return snap.Hists[i].Name < snap.Hists[j].Name })
	return snap
}

// Dump writes the text exposition: one `name value` line per counter and
// gauge, and `name_bucket{le="..."}`/`name_sum`/`name_count` lines per
// histogram, all sorted by name for deterministic output. A labeled
// histogram's suffixes go on the base name, its labels ahead of `le`:
// `xlink_batch_size_bucket{path="0",le="1"}`.
func (r *Registry) Dump(w io.Writer) {
	snap := r.Snapshot()
	for _, c := range snap.Counters {
		fmt.Fprintf(w, "%s %d\n", c.Name, c.Value)
	}
	for _, g := range snap.Gauges {
		fmt.Fprintf(w, "%s %g\n", g.Name, g.Value)
	}
	for _, h := range snap.Hists {
		// base `xlink_batch_size`, labels `{path="0"}`, open `{path="0",`.
		base, labels, open := string(h.Name), "", "{"
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base, labels = base[:i], base[i:]
			open = strings.TrimSuffix(labels, "}") + ","
		}
		var cum uint64
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fmt.Sprintf("%g", h.Bounds[i])
			}
			fmt.Fprintf(w, "%s_bucket%sle=%q} %d\n", base, open, le, cum)
		}
		fmt.Fprintf(w, "%s_sum%s %g\n", base, labels, h.Sum)
		fmt.Fprintf(w, "%s_count%s %d\n", base, labels, h.Count)
	}
}
