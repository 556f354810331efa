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
// internally synchronized: it is confined to whatever loop drives the
// connection (the sim scheduler or the endpoint lock — see
// xlink.Endpoint.TraceBytes), which the confined annotations below let
// xlinkvet enforce.
//
// Each event is assembled in a reused line buffer and then fanned out to
// the sinks: the append-only NDJSON buffer (full traces) and/or the
// flight-recorder ring (always-on last-N capture). NewFlightTrace builds a
// ring-only trace whose steady-state emit path allocates nothing at all.
type Trace struct {
	title  string
	ndjson bool         // keep the full NDJSON stream in buf
	buf    bytes.Buffer // xlinkvet:guardedby confined
	line   []byte       // xlinkvet:guardedby confined (per-event assembly buffer, reused)
	ring   *FlightRecorder
	reg    *Registry
	events uint64 // xlinkvet:guardedby confined
	// evCounters caches the per-name emit counter so the steady-state emit
	// path neither concatenates the metric name nor walks the registry map.
	evCounters map[EventName]*Counter // xlinkvet:guardedby confined
	// anomalies caches the anomaly-trigger counter handle.
	anomalies *Counter
	// Batching metric handles (DESIGN.md §16): the per-path batch-size
	// histograms are labeled via With, which allocates, so each handle is
	// built on a path's first flush and cached here; the counters likewise.
	batchSizeHists map[uint64]*Histogram // xlinkvet:guardedby confined
	batchFlushes   *Counter
	coalescedAcks  *Counter
}

// NewTrace creates an empty full trace: every event is appended to the
// NDJSON stream. title labels the stream in its header line (typically the
// scenario name).
func NewTrace(title string) *Trace { return newTrace(title, true, 0) }

// NewFlightTrace creates a ring-only trace: events are formatted into the
// flight-recorder ring of the given capacity (DefaultFlightSlots when
// n <= 0) and the NDJSON buffer stays empty, so always-on capture costs a
// fixed allocation at construction and nothing per event. Bytes returns
// nil; read the ring via Flight.
func NewFlightTrace(title string, n int) *Trace { return newTrace(title, false, n) }

func newTrace(title string, ndjson bool, ringSlots int) *Trace {
	t := &Trace{
		title: title, ndjson: ndjson,
		reg:        NewRegistry(),
		evCounters: make(map[EventName]*Counter),
	}
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

// Origin is a component's handle onto a shared Trace. The label names the
// emitting vantage point ("client", "server", "net") on every event. All
// event methods are nil-receiver-safe no-ops.
type Origin struct {
	t     *Trace
	label string
}

// KV is one extension field of an ad-hoc Emit event.
type KV struct{ K, V string }

// Emit writes an event with free-form string fields. name must be a
// registered EventName constant; typed events should use the dedicated
// methods instead.
//
// xlinkvet:hot
func (o *Origin) Emit(now time.Duration, name EventName, kv ...KV) {
	if o == nil {
		return
	}
	o.begin(now, name)
	for _, f := range kv {
		o.s(f.K, f.V)
	}
	o.end()
}

// --- low-level NDJSON plumbing (deterministic field order, no maps) ---

// begin opens one event line in the reused line buffer: fixed header
// fields, then the data object.
//
// xlinkvet:hot
func (o *Origin) begin(now time.Duration, name EventName) {
	t := o.t
	t.line = append(t.line[:0], `{"time":`...)
	t.line = strconv.AppendInt(t.line, int64(now), 10)
	t.line = append(t.line, `,"origin":`...)
	t.line = appendJSONString(t.line, o.label)
	t.line = append(t.line, `,"name":`...)
	t.line = appendJSONString(t.line, string(name))
	t.line = append(t.line, `,"data":{`...)
	c := t.evCounters[name]
	//xlinkvet:cold — first emit of each name builds and caches its counter; steady state is the map hit
	if c == nil {
		c = t.reg.Counter(MetricTraceEvents.With("name", string(name)))
		t.evCounters[name] = c
	}
	c.Inc()
}

// end closes the event line and fans it out to the enabled sinks.
//
// xlinkvet:hot
func (o *Origin) end() {
	t := o.t
	t.line = append(t.line, '}', '}', '\n')
	if t.ndjson {
		t.buf.Write(t.line)
	}
	if t.ring != nil {
		t.ring.record(t.line)
	}
	t.events++
}

// sep writes the comma between data fields (the data object tracks its own
// position: first field follows '{', later fields follow a value).
//
// xlinkvet:hot
func (o *Origin) sep() {
	if b := o.t.line; len(b) > 0 && b[len(b)-1] != '{' {
		o.t.line = append(b, ',')
	}
}

// u64 writes an unsigned integer field.
//
// xlinkvet:hot
func (o *Origin) u64(key string, v uint64) {
	o.sep()
	t := o.t
	t.line = appendJSONString(t.line, key)
	t.line = append(t.line, ':')
	t.line = strconv.AppendUint(t.line, v, 10)
}

// i writes a signed integer field.
//
// xlinkvet:hot
func (o *Origin) i(key string, v int64) {
	o.sep()
	t := o.t
	t.line = appendJSONString(t.line, key)
	t.line = append(t.line, ':')
	t.line = strconv.AppendInt(t.line, v, 10)
}

// d writes a duration field in nanoseconds.
//
// xlinkvet:hot
func (o *Origin) d(key string, v time.Duration) { o.i(key, int64(v)) }

// s writes a string field.
//
// xlinkvet:hot
func (o *Origin) s(key, v string) {
	o.sep()
	t := o.t
	t.line = appendJSONString(t.line, key)
	t.line = append(t.line, ':')
	t.line = appendJSONString(t.line, v)
}

// b writes a boolean field.
//
// xlinkvet:hot
func (o *Origin) b(key string, v bool) {
	o.sep()
	t := o.t
	t.line = appendJSONString(t.line, key)
	if v {
		t.line = append(t.line, `:true`...)
	} else {
		t.line = append(t.line, `:false`...)
	}
}

// appendJSONString appends a JSON string. Event payloads are internal
// identifiers and short reasons; the escape loop handles quotes,
// backslashes and control bytes so arbitrary reasons still produce valid
// JSON.
//
// xlinkvet:hot
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}
