package obs

import "time"

// Flight recorder (DESIGN.md §14): a fixed-size ring of the most recent
// trace events, kept even when full NDJSON tracing is off, so that when
// something goes wrong in production there is a last-N record of what the
// connection was doing. A slot is one record (see record): recording fills
// it in place, renders nothing and allocates nothing; the ring is rendered
// as NDJSON only when read — an anomaly trigger (rare, already off the hot
// path) or Snapshot.

// DefaultFlightSlots is the ring capacity when the caller does not choose
// one: 256 events is a few RTTs of packet-level history for one
// connection at typical rates, at 28 KiB fixed cost.
const DefaultFlightSlots = 256

// maxAnomalyDumps caps retained dumps per recorder. The first anomalies of
// a session are the diagnostic ones (later ones are usually cascade);
// beyond the cap only the trigger counter advances.
const maxAnomalyDumps = 8

// AnomalyDump is one flight-recorder capture: the ring contents at the
// moment an anomaly fired, oldest event first, ending with the
// anomaly:triggered event itself. Events is valid NDJSON (parseable with
// ParseBytes).
type AnomalyDump struct {
	Reason string
	Time   time.Duration
	Events []byte
}

// FlightRecorder is the always-on last-N event ring attached to a Trace.
// Like the Trace it is confined to the goroutine that drives the
// connection, which alone moves its cursor and fill count and reads its
// dumps; it is NOT safe for concurrent use (the registry carries the
// cross-goroutine metrics instead).
type FlightRecorder struct {
	slots []record // fixed at construction
	next  int
	// held is how many slots hold an event: it grows to len(slots).
	held  int
	dumps []AnomalyDump
	// anomalies counts triggers, including those past maxAnomalyDumps.
	anomalies   uint64
	firstReason string
}

func newFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightSlots
	}
	return &FlightRecorder{slots: make([]record, n)}
}

// slot hands out the next ring slot, overwriting the oldest event, for an
// emitter to fill.
func (r *FlightRecorder) slot() *record {
	s := &r.slots[r.next]
	r.next++
	if r.next == len(r.slots) {
		r.next = 0
	}
	if r.held < len(r.slots) {
		r.held++
	}
	return s
}

// snapshotLineBytes sizes a snapshot's buffer: event lines run about
// 100–200 bytes.
const snapshotLineBytes = 160

// snapshot renders the ring's events oldest-first into a fresh NDJSON
// buffer.
func (r *FlightRecorder) snapshot() []byte {
	out := make([]byte, 0, r.held*snapshotLineBytes)
	first := 0
	if r.held == len(r.slots) {
		first = r.next
	}
	for k := 0; k < r.held; k++ {
		out = r.slots[(first+k)%len(r.slots)].render(out)
	}
	return out
}

// capture snapshots the ring into a retained AnomalyDump. Cold path by
// contract: anomalies are rare, and the cap bounds total retention.
func (r *FlightRecorder) capture(now time.Duration, reason string) {
	r.anomalies++
	if r.firstReason == "" {
		r.firstReason = reason
	}
	if len(r.dumps) < maxAnomalyDumps {
		r.dumps = append(r.dumps, AnomalyDump{Reason: reason, Time: now, Events: r.snapshot()})
	}
}

// Dumps returns the retained anomaly dumps, oldest first.
func (r *FlightRecorder) Dumps() []AnomalyDump { return r.dumps }

// Anomalies returns how many anomaly triggers fired (including any past
// the retained-dump cap).
func (r *FlightRecorder) Anomalies() uint64 { return r.anomalies }

// FirstAnomaly returns the reason of the first trigger ("" when none).
func (r *FlightRecorder) FirstAnomaly() string { return r.firstReason }

// Snapshot returns the current ring contents as NDJSON, oldest first —
// the on-demand (non-anomaly) view the /debug handler serves.
func (r *FlightRecorder) Snapshot() []byte { return r.snapshot() }

// Anomaly emits an anomaly:triggered event and, when the trace has a
// flight recorder, captures the ring into a retained dump whose last line
// is the anomaly event itself. reason names the trigger
// ("rebuffer_stall", "error_close", "path_auto_abandoned",
// "fec_giveup_burst").
func (o *Origin) Anomaly(now time.Duration, reason string) {
	if o == nil {
		return
	}
	r := o.open(now, evAnomaly)
	r.s[0] = reason
	o.commit(r)
	o.t.anomalies.Inc()
	if ring := o.t.ring; ring != nil {
		ring.capture(now, reason)
	}
}
