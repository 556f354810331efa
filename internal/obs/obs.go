// Package obs is the observability seam of the XLINK reproduction: a
// qlog-flavored structured event tracer, a concurrent metrics registry,
// and an always-on flight recorder. A Trace is an append-only NDJSON event
// stream whose timestamps come exclusively from the owning sim.Clock (the
// caller passes `now`; the package itself never reads a clock), so the
// same (scenario, seed) pair produces a byte-identical trace — traces are
// diffable artifacts, not logs. Components hold an *Origin, a labeled
// handle onto a shared Trace; a nil *Origin is the zero-overhead default:
// every typed event method is nil-safe, takes only scalar arguments, and
// returns immediately without allocating, so instrumented hot paths
// (packet send) cost nothing when tracing is off.
//
// Layering: obs imports nothing above the standard library; every other
// layer (transport, qoe, video, faults, xlink) imports obs. Event names
// are the registered EventName constants below and metric names the
// registered MetricName catalog (see registry.go). The committed golden
// trace (internal/chaos) pins the events a run emits, timestamps included,
// and xlink's TestDebugHandlerLive parses a live /metrics scrape against
// the exposition grammar.
//
// A Trace is not internally synchronized: it must be driven from a single
// goroutine (the sim loop) or under an external lock (the live endpoint's
// connection mutex), exactly like the transport.Conn it instruments. The
// Registry it carries IS safe for concurrent use — handles record with
// atomics — so metrics outlive the confined event stream and can be read
// from any goroutine (the /metrics handler).
package obs

import (
	"bytes"
	"strconv"
	"time"
)

// EventName is a registered trace event type. All names used with a Trace
// must be the package-level constants below, so the event taxonomy stays a
// closed, greppable set.
type EventName string

// The event taxonomy. Names are "category:event" in qlog style.
const (
	// Transport packet events.
	EvPacketSent     EventName = "transport:packet_sent"
	EvPacketReceived EventName = "transport:packet_received"
	EvPacketAcked    EventName = "transport:packet_acked"
	EvPacketLost     EventName = "transport:packet_lost"
	// Congestion/recovery metrics (qlog recovery:metrics_updated).
	EvMetricsUpdated EventName = "recovery:metrics_updated"
	// Path lifecycle.
	EvPathAdded      EventName = "path:added"
	EvPathValidated  EventName = "path:validated"
	EvPathState      EventName = "path:state_changed"
	EvPathAbandoned  EventName = "path:abandoned"
	EvPrimaryChanged EventName = "path:primary_changed"
	// Connection lifecycle.
	EvConnState EventName = "conn:state_changed"
	// Per-session QoE rollup, emitted once as the session ends.
	EvScorecard EventName = "conn:scorecard"
	// QoE feedback and Alg. 1 double-threshold decisions.
	EvQoESignal   EventName = "qoe:signal"
	EvQoEDecision EventName = "qoe:reinjection_decision"
	// Re-injection scheduling.
	EvReinjectSend   EventName = "reinjection:send"
	EvReinjectCancel EventName = "reinjection:cancel"
	// Forward-erasure-correction lane (DESIGN.md §13).
	EvFECSymbolSent     EventName = "fec:symbol_sent"
	EvFECSymbolReceived EventName = "fec:symbol_received"
	EvFECRecovered      EventName = "fec:recovered"
	EvFECGiveUp         EventName = "fec:decoder_give_up"
	EvFECDecision       EventName = "qoe:fec_decision"
	// Video pipeline.
	EvVideoFrameCached   EventName = "video:frame_cached"
	EvVideoFramesDecoded EventName = "video:frames_decoded"
	EvVideoPlaybackStart EventName = "video:playback_started"
	EvVideoRebufferStart EventName = "video:rebuffer_start"
	EvVideoRebufferEnd   EventName = "video:rebuffer_end"
	EvVideoFinished      EventName = "video:finished"
	// Batched packet I/O (DESIGN.md §16): one SendBatch flush of N sealed
	// packets on a path, and one batch-end coalesced loss-detection pass
	// covering N ACK frames.
	EvBatchFlush   EventName = "transport:batch_flush"
	EvAckCoalesced EventName = "transport:ack_coalesced"
	// Fault injection (so injected faults and transport reactions share
	// one timeline).
	EvFaultInjected EventName = "fault:injected"
	// Flight-recorder anomaly trigger (DESIGN.md §14): the event both
	// lands in the stream and snapshots the recorder ring.
	EvAnomaly EventName = "anomaly:triggered"
)

// formatHeader identifies the stream format in the first line of a trace.
const formatHeader = "xlink-ndjson-01"

// Trace is one NDJSON event stream. Create with NewTrace, hand out labeled
// Origins to components, and read the result with Bytes. A Trace is not
// internally synchronized: it is confined to the one goroutine that drives
// its connection — the sim scheduler, or a live endpoint's shard goroutine,
// where xlink.Endpoint.TraceBytes reads it too — and its stream, record,
// counts and cached handles are touched by no other.
//
// Each typed emitter fills one fixed-size record (see record) and hands it
// to the sinks: the NDJSON stream (full traces) renders it at once, the
// flight-recorder ring (always-on last-N capture) keeps the record and
// renders it only when read. NewFlightTrace builds a ring-only trace, whose
// emit path renders nothing and allocates nothing.
type Trace struct {
	title  string
	ndjson bool // keep the full NDJSON stream in buf
	buf    bytes.Buffer
	// rec is the record an event is filled into when no ring is attached.
	rec    record
	ring   *FlightRecorder
	reg    *Registry
	events uint64
	// evCounters caches the per-event emit counter, indexed by event, so
	// the steady-state emit path neither builds the metric name nor looks
	// it up.
	evCounters [numEvents]*Counter
	// anomalies caches the anomaly-trigger counter handle.
	anomalies *Counter
	// Batching metric handles (DESIGN.md §16): the per-path batch-size
	// histograms are labeled via With, which allocates, so each handle is
	// built on a path's first flush and cached here; the counters likewise.
	batchSizeHists map[uint64]*Histogram
	batchFlushes   *Counter
	coalescedAcks  *Counter
}

// NewTrace creates an empty full trace: every event is appended to the
// NDJSON stream. title labels the stream in its header line (typically the
// scenario name).
func NewTrace(title string) *Trace { return newTrace(title, true, 0) }

// NewFlightTrace creates a ring-only trace: events are kept in the
// flight-recorder ring of the given capacity (DefaultFlightSlots when
// n <= 0) and the NDJSON buffer stays empty, so always-on capture costs a
// fixed allocation at construction and nothing per event. Bytes returns
// nil; read the ring via Flight.
func NewFlightTrace(title string, n int) *Trace { return newTrace(title, false, n) }

func newTrace(title string, ndjson bool, ringSlots int) *Trace {
	t := &Trace{title: title, ndjson: ndjson, reg: NewRegistry()}
	t.anomalies = t.reg.Counter(MetricAnomalies)
	if !ndjson || ringSlots > 0 {
		t.ring = newFlightRecorder(ringSlots)
	}
	if ndjson {
		hdr := append([]byte(nil), `{"format":"`+formatHeader+`","title":`...)
		hdr = appendJSONString(hdr, title)
		hdr = append(hdr, "}\n"...)
		t.buf.Write(hdr)
	}
	return t
}

// AttachFlightRecorder ensures the trace has a flight-recorder ring of at
// least the default size (or n slots when none exists yet), and returns
// it. Attaching to a trace that already has a ring keeps the existing one.
func (t *Trace) AttachFlightRecorder(n int) *FlightRecorder {
	if t.ring == nil {
		t.ring = newFlightRecorder(n)
	}
	return t.ring
}

// Flight returns the trace's flight recorder (nil when none is attached).
// Like the Trace itself it is confined to the driving goroutine/lock.
func (t *Trace) Flight() *FlightRecorder { return t.ring }

// Origin returns a labeled emit handle onto the trace. A nil Trace yields
// a nil Origin, which is the no-op tracer: safe, silent, allocation-free.
func (t *Trace) Origin(label string) *Origin {
	if t == nil {
		return nil
	}
	return &Origin{t: t, label: label}
}

// Registry returns the metrics registry attached to the trace; every
// emitted event bumps its per-name counter. Unlike the trace, the registry
// is safe to read from any goroutine.
func (t *Trace) Registry() *Registry { return t.reg }

// Bytes returns the NDJSON stream accumulated so far (nil for a
// flight-only trace).
func (t *Trace) Bytes() []byte { return t.buf.Bytes() }

// EventCount returns how many events (excluding the header) were emitted.
func (t *Trace) EventCount() uint64 { return t.events }

// count advances the emit counters of one event.
func (t *Trace) count(ev evIndex) {
	c := t.evCounters[ev]
	if c == nil {
		c = t.reg.Counter(MetricTraceEvents.With("name", string(eventSpecs[ev].name)))
		t.evCounters[ev] = c
	}
	c.Inc()
	t.events++
}

// Origin is a component's handle onto a shared Trace. The label names the
// emitting vantage point ("client", "server", "net") on every event. All
// event methods are nil-receiver-safe no-ops.
type Origin struct {
	t     *Trace
	label string
}

// open starts one event and returns the record its emitter fills: the
// ring's next slot, or the trace's own record when no ring is attached.
// The emitter sets the values its event's spec names and calls commit.
func (o *Origin) open(now time.Duration, ev evIndex) *record {
	t := o.t
	r := &t.rec
	if t.ring != nil {
		r = t.ring.slot()
	}
	r.at, r.o, r.ev = now, o, ev
	return r
}

// commit finishes the record open returned: a full trace renders it onto
// the NDJSON stream now, in the stream's spare capacity when it has room;
// a ring already holds it.
func (o *Origin) commit(r *record) {
	t := o.t
	if t.ndjson {
		t.buf.Write(r.render(t.buf.AvailableBuffer()))
	}
	t.count(r.ev)
}

// --- records ---

// The most values one record holds: every typed event fits, and the
// variable-length scorecard is the one event that does not use a record.
const (
	recordNums = 5
	recordStrs = 3
)

// record is one event as its emitter filled it: the instant, the origin,
// which event, and its values. Numeric values (signed ones and durations
// as their two's-complement bits, booleans as 0/1) fill u in the order the
// event's spec lists them, strings fill s likewise. A string keeps its
// header only: strings are immutable, so no byte is copied. 112 bytes.
type record struct {
	at time.Duration
	o  *Origin
	ev evIndex
	u  [recordNums]uint64
	s  [recordStrs]string
}

// fieldKind says how the renderer writes one data field of a record.
type fieldKind uint8

const (
	kindU64  fieldKind = iota // the next u value, unsigned
	kindInt                   // the next u value, signed (durations in ns)
	kindBool                  // the next u value, non-zero = true
	kindStr                   // the next s value
)

// field is one data field of an event: its key and how it renders.
type field struct {
	key  string
	kind fieldKind
}

// eventSpec is how one event renders: its name and its data fields in
// order. The scorecard's spec has no fields: it renders itself.
type eventSpec struct {
	name   EventName
	fields []field
}

// flag stores a boolean in a record's numeric values.
func flag(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// render appends the record as one NDJSON event line. The NDJSON sink
// calls it as the event is emitted, the ring when it is read, so the two
// produce the same bytes.
func (r *record) render(dst []byte) []byte {
	spec := &eventSpecs[r.ev]
	dst = begin(dst, r.at, r.o.label, spec.name)
	nu, ns := 0, 0
	for k := range spec.fields {
		f := &spec.fields[k]
		switch f.kind {
		case kindU64:
			dst = u64(dst, f.key, r.u[nu])
			nu++
		case kindInt:
			dst = i(dst, f.key, int64(r.u[nu]))
			nu++
		case kindBool:
			dst = b(dst, f.key, r.u[nu] != 0)
			nu++
		case kindStr:
			dst = s(dst, f.key, r.s[ns])
			ns++
		}
	}
	return end(dst)
}

// --- the NDJSON renderer (deterministic field order, no maps) ---

// begin opens one event line: fixed header fields, then the data object.
func begin(dst []byte, now time.Duration, origin string, name EventName) []byte {
	dst = append(dst, `{"time":`...)
	dst = strconv.AppendInt(dst, int64(now), 10)
	dst = append(dst, `,"origin":`...)
	dst = appendJSONString(dst, origin)
	dst = append(dst, `,"name":`...)
	dst = appendJSONString(dst, string(name))
	return append(dst, `,"data":{`...)
}

// end closes the data object and the event line.
func end(dst []byte) []byte { return append(dst, '}', '}', '\n') }

// sep writes the comma between data fields (the data object tracks its own
// position: first field follows '{', later fields follow a value), then
// the field's key.
func sep(dst []byte, key string) []byte {
	if len(dst) > 0 && dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	dst = appendJSONString(dst, key)
	return append(dst, ':')
}

// u64 writes an unsigned integer field.
func u64(dst []byte, key string, v uint64) []byte {
	return strconv.AppendUint(sep(dst, key), v, 10)
}

// i writes a signed integer field.
func i(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(sep(dst, key), v, 10)
}

// d writes a duration field in nanoseconds.
func d(dst []byte, key string, v time.Duration) []byte { return i(dst, key, int64(v)) }

// s writes a string field.
func s(dst []byte, key, v string) []byte {
	return appendJSONString(sep(dst, key), v)
}

// b writes a boolean field.
func b(dst []byte, key string, v bool) []byte {
	return strconv.AppendBool(sep(dst, key), v)
}

// appendJSONString appends a JSON string. Event payloads are internal
// identifiers and short reasons; the escape loop handles quotes,
// backslashes and control bytes so arbitrary reasons still produce valid
// JSON. Runs that need no escape are copied whole.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '"' && c != '\\' && c >= 0x20 {
			continue
		}
		dst = append(dst, s[start:i]...)
		if c < 0x20 {
			const hex = "0123456789abcdef"
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		} else {
			dst = append(dst, '\\', c)
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
