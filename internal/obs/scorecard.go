package obs

import (
	"strconv"
	"time"
)

// Per-session QoE scorecard (DESIGN.md §14): the per-connection rollup the
// paper's fleet telemetry aggregates across millions of plays. One
// Scorecard is composed as a session ends — transport counters, Alg. 1
// controller activity, player stalls — emitted as a single conn:scorecard
// event, and merged into the registry's xlink_* metric families.

// ScorecardMaxPaths bounds the per-path section. The scorecard is a plain
// comparable value (the chaos determinism invariant compares Results with
// ==), so paths live in a fixed array; connections with more paths roll up
// the first ScorecardMaxPaths in creation order and still count the totals.
const ScorecardMaxPaths = 4

// PathScore is one path's slice of the session rollup (sender-side view).
type PathScore struct {
	ID          uint64
	SentPackets uint64
	LostPackets uint64
	SentBytes   uint64
	ReinjBytes  uint64
	// UtilPermille is this path's share of the connection's sent bytes,
	// in parts per thousand.
	UtilPermille uint64
	// LossPermille is LostPackets/SentPackets in parts per thousand.
	LossPermille uint64
}

// Scorecard is the per-session QoE rollup: request completion, player
// stalls, Alg. 1 decision activity, recovery-lane byte attribution
// (retransmission vs re-injection vs FEC-recovered), and per-path
// utilization/loss. It is comparable (==) by construction.
type Scorecard struct {
	// RCT is the request completion time (paper §5 headline metric);
	// zero when the transfer did not complete.
	RCT       time.Duration
	Completed bool
	// Player stall totals.
	RebufferTime  time.Duration
	RebufferCount uint64
	// Alg. 1 double-threshold controller activity: evaluations, enables,
	// and verdict transitions (enable<->disable flips).
	QoEDecisions, QoEEnables, QoETransitions uint64
	// Recovery-lane byte attribution.
	StreamBytes       uint64 // first-transmission stream payload sent
	RtxBytes          uint64 // lost ranges retransmitted (lane 1)
	ReinjBytes        uint64 // proactive cross-path duplicates (lane 2)
	FECRecoveredBytes uint64 // receiver-side FEC reconstructions (lane 3)
	// CloseCode is the transport close error code (0 = clean).
	CloseCode uint64
	// Per-path rollups, first NumPaths entries valid.
	NumPaths int
	Paths    [ScorecardMaxPaths]PathScore
}

// pathKeys precomputes the numbered per-path field names so the emitter
// does no string building per event.
var pathKeys = func() [ScorecardMaxPaths][7]string {
	var ks [ScorecardMaxPaths][7]string
	for i := range ks {
		p := "p" + strconv.Itoa(i) + "_"
		ks[i] = [7]string{
			p + "id", p + "sent_pkts", p + "lost_pkts", p + "sent_bytes",
			p + "reinj_bytes", p + "util_pm", p + "loss_pm",
		}
	}
	return ks
}()

// Scorecard emits the session rollup as one conn:scorecard event. Its
// field count varies with the paths, so it is the one event no record
// holds: it renders straight onto the NDJSON stream, and a flight ring
// counts it in Truncated and leaves it out of dumps.
func (o *Origin) Scorecard(now time.Duration, sc *Scorecard) {
	if o == nil {
		return
	}
	t := o.t
	if t.ndjson {
		l := begin(t.buf.AvailableBuffer(), now, o.label, EvScorecard)
		l = d(l, "rct", sc.RCT)
		l = b(l, "completed", sc.Completed)
		l = d(l, "rebuffer", sc.RebufferTime)
		l = u64(l, "rebuffer_count", sc.RebufferCount)
		l = u64(l, "qoe_decisions", sc.QoEDecisions)
		l = u64(l, "qoe_enables", sc.QoEEnables)
		l = u64(l, "qoe_transitions", sc.QoETransitions)
		l = u64(l, "stream_bytes", sc.StreamBytes)
		l = u64(l, "rtx_bytes", sc.RtxBytes)
		l = u64(l, "reinj_bytes", sc.ReinjBytes)
		l = u64(l, "fec_recovered_bytes", sc.FECRecoveredBytes)
		l = u64(l, "close_code", sc.CloseCode)
		l = i(l, "paths", int64(sc.NumPaths))
		for n := 0; n < sc.NumPaths && n < ScorecardMaxPaths; n++ {
			p, k := &sc.Paths[n], &pathKeys[n]
			l = u64(l, k[0], p.ID)
			l = u64(l, k[1], p.SentPackets)
			l = u64(l, k[2], p.LostPackets)
			l = u64(l, k[3], p.SentBytes)
			l = u64(l, k[4], p.ReinjBytes)
			l = u64(l, k[5], p.UtilPermille)
			l = u64(l, k[6], p.LossPermille)
		}
		t.buf.Write(end(l))
	}
	t.count(evScorecard) // no record holds a scorecard: the ring leaves it out
}

// ScorecardFromEvent decodes a conn:scorecard event parsed back from a
// trace (the fleet-aggregation path in cmd/xlinkqlog).
func ScorecardFromEvent(e Event) (Scorecard, bool) {
	if e.Name != EvScorecard {
		return Scorecard{}, false
	}
	sc := Scorecard{
		RCT:               e.Dur("rct"),
		Completed:         e.Bool("completed"),
		RebufferTime:      e.Dur("rebuffer"),
		RebufferCount:     e.U64("rebuffer_count"),
		QoEDecisions:      e.U64("qoe_decisions"),
		QoEEnables:        e.U64("qoe_enables"),
		QoETransitions:    e.U64("qoe_transitions"),
		StreamBytes:       e.U64("stream_bytes"),
		RtxBytes:          e.U64("rtx_bytes"),
		ReinjBytes:        e.U64("reinj_bytes"),
		FECRecoveredBytes: e.U64("fec_recovered_bytes"),
		CloseCode:         e.U64("close_code"),
		NumPaths:          int(e.I64("paths")),
	}
	if sc.NumPaths > ScorecardMaxPaths {
		sc.NumPaths = ScorecardMaxPaths
	}
	for i := 0; i < sc.NumPaths; i++ {
		k := &pathKeys[i]
		sc.Paths[i] = PathScore{
			ID: e.U64(k[0]), SentPackets: e.U64(k[1]), LostPackets: e.U64(k[2]),
			SentBytes: e.U64(k[3]), ReinjBytes: e.U64(k[4]),
			UtilPermille: e.U64(k[5]), LossPermille: e.U64(k[6]),
		}
	}
	return sc, true
}

// RCTBuckets is the log-bucket layout for xlink_session_rct_seconds:
// 50 ms to ~200 s at constant relative resolution.
func RCTBuckets() []float64 { return LogBuckets(0.05, 2, 12) }

// RebufferBuckets is the layout for xlink_session_rebuffer_seconds:
// 10 ms to ~40 s.
func RebufferBuckets() []float64 { return LogBuckets(0.01, 2, 12) }

// MergeScorecard folds one session's scorecard into the registry's
// xlink_* families. Safe to call from any goroutine (the registry is
// concurrent); merging the same set of scorecards in any order yields the
// same exposition.
func (r *Registry) MergeScorecard(sc *Scorecard) {
	r.Counter(MetricSessions).Inc()
	if sc.Completed {
		r.Counter(MetricSessionsCompleted).Inc()
		r.Histogram(MetricSessionRCTSeconds, RCTBuckets()).Observe(sc.RCT.Seconds())
	}
	r.Counter(MetricRebuffers).Add(sc.RebufferCount)
	r.Histogram(MetricSessionRebufferSeconds, RebufferBuckets()).Observe(sc.RebufferTime.Seconds())
	r.Counter(MetricQoEDecisions).Add(sc.QoEDecisions)
	r.Counter(MetricQoEEnables).Add(sc.QoEEnables)
	r.Counter(MetricQoETransitions).Add(sc.QoETransitions)
	r.Counter(MetricStreamBytes).Add(sc.StreamBytes)
	r.Counter(MetricRtxBytes).Add(sc.RtxBytes)
	r.Counter(MetricReinjectedBytes).Add(sc.ReinjBytes)
	r.Counter(MetricFECRecoveredBytes).Add(sc.FECRecoveredBytes)
	for i := 0; i < sc.NumPaths && i < ScorecardMaxPaths; i++ {
		r.Counter(MetricPathSentPackets).Add(sc.Paths[i].SentPackets)
		r.Counter(MetricPathLostPackets).Add(sc.Paths[i].LostPackets)
	}
}
