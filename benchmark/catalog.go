package main

// The metric catalog. BENCHMARK.json at the repository root declares the same
// names, units and directions for the driver; TestCatalogMatchesManifest keeps
// the two in step.

// metricDef declares one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// The workload names, in the order a run without -workload executes them.
const (
	wlBulkClean = "sim-bulk-clean"
	wlBulkLossy = "sim-bulk-lossy"
	wlFleet     = "fleet-ab"
	wlLive      = "live-rr"
)

var workloadNames = []string{wlBulkClean, wlBulkLossy, wlFleet, wlLive}

// endToEnd are the gated metrics: the driver holds each to its bound. Every
// one is defined on every workload (the run contract reports all of them for
// each) and is never zero. Only set-up time and the two metrics that repeat
// from run to run are here. The timings a user sees first (goodput, CPU per
// MiB, sessions and requests per second) spread by 5 to 24 % between runs of
// the same code on the reference box, above the 10 % at which ISSUE 12
// demotes a timing, so they are the e2e.* per-layer metrics below: reported
// with quartiles, compared by paired runs, never held to an absolute bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"allocs_per_pkt", "count", "lower"},
	{"retained_heap_MiB", "MiB", "lower"},
}

// bounds give, per end-to-end metric, the share of the parent's median by
// which it may worsen before the change counts as a regression. One bound
// covers all four workloads, so the noisiest sets it; README.md records the
// spreads they came from. setup_s is a timing and has the largest bound the
// run contract allows.
var bounds = map[string]float64{
	"setup_s":           0.25,
	"allocs_per_pkt":    0.03,
	"retained_heap_MiB": 0.25,
}

// timings are the demoted end-to-end timings, measured per untraced
// repetition in both modes. sessions_per_s exists on fleet-ab and req_per_s
// on live-rr only: elsewhere one repetition is one session and they would
// repeat goodput in another unit.
var timings = []string{"e2e.goodput_MiBps", "e2e.cpu_ms_per_MiB", "e2e.sessions_per_s", "e2e.req_per_s"}

// perLayer are the single-layer metrics of the traced run. The prefix is the
// module the number belongs to. A metric whose layer a workload bypasses, or
// that cannot be separated from outside on that workload, reads 0 there.
var perLayer = []metricDef{
	// End-to-end timings, too noisy on the reference box to gate.
	{"e2e.goodput_MiBps", "MiB/s", "higher"},
	{"e2e.cpu_ms_per_MiB", "ms/MiB", "lower"},
	{"e2e.sessions_per_s", "1/s", "higher"},
	{"e2e.req_per_s", "1/s", "higher"},
	// Outside-in spans and boundary counters around the transport.
	{"transport.recv_self_ns_per_pkt", "ns", "lower"},
	{"transport.ack_recv_self_ns_per_pkt", "ns", "lower"},
	{"transport.recv_age_growth", "ratio", "lower"},
	{"transport.timer_self_ns_per_pkt", "ns", "lower"},
	{"transport.pkts_per_MiB", "count", "lower"},
	{"transport.ack_pkt_share", "ratio", "lower"},
	{"transport.wire_efficiency", "ratio", "higher"},
	{"transport.batch_fill_mean", "count", "higher"},
	{"transport.mean_datagram_B", "B", "higher"},
	{"transport.reinject_byte_share", "ratio", "lower"},
	{"transport.dup_recv_byte_share", "ratio", "lower"},
	{"recovery.rtx_byte_share", "ratio", "lower"},
	{"qoe.enable_share", "ratio", "lower"},
	{"netem.send_self_ns_per_pkt", "ns", "lower"},
	{"netem.drop_share", "ratio", "lower"},
	{"netem.queue_peak_pkts", "count", "lower"},
	{"sim.loop_self_ns_per_pkt", "ns", "lower"},
	{"sim.events_per_pkt", "count", "lower"},
	{"sim.virt_s_per_wall_s", "ratio", "higher"},
	{"core.session_setup_us", "us", "lower"},
	{"abtest.parallel_efficiency", "ratio", "higher"},
	{"abtest.completed_share", "ratio", "higher"},
	{"video.callback_self_ns_per_pkt", "ns", "lower"},
	// QoE outputs in virtual time: exact per seed, must not move under a
	// pure performance change.
	{"video.rct_p50_ms", "ms", "lower"},
	{"video.rct_p95_ms", "ms", "lower"},
	{"video.first_frame_p50_ms", "ms", "lower"},
	{"video.rebuffer_ms_per_session", "ms", "lower"},
	// Live plane.
	{"xlink.tiny_rtt_p50_us", "us", "lower"},
	{"xlink.tiny_rtt_p99_us", "us", "lower"},
	{"xlink.chunk_latency_p50_ms", "ms", "lower"},
	{"xlink.chunk_latency_p99_ms", "ms", "lower"},
	{"xlink.write_call_us", "us", "lower"},
	{"xlink.sys_cpu_share", "ratio", "lower"},
	{"xlink.ctx_switches_per_req", "count", "lower"},
	{"xlink.rtx_byte_share", "ratio", "lower"},
	// Probes: exported functions of the inner layers on MTU-STREAM shapes.
	{"crypto.seal_ns_per_pkt", "ns", "lower"},
	{"crypto.open_ns_per_pkt", "ns", "lower"},
	{"crypto.header_mask_ns", "ns", "lower"},
	{"wire.stream_append_ns", "ns", "lower"},
	{"wire.stream_parse_ns", "ns", "lower"},
	{"wire.ack_mp_parse_ns", "ns", "lower"},
	{"wire.parse_allocs_per_pkt", "count", "lower"},
	{"recovery.on_sent_ns", "ns", "lower"},
	{"recovery.on_ack_ns_span64", "ns", "lower"},
	{"recovery.on_ack_ns_span16k", "ns", "lower"},
	{"recovery.detect_lost_ns_inflight256", "ns", "lower"},
	{"rangeset.add_seq_ns", "ns", "lower"},
	{"rangeset.add_gap_ns", "ns", "lower"},
	{"cc.on_ack_ns", "ns", "lower"},
	{"qoe.decide_ns", "ns", "lower"},
	{"netem.link_ns_per_pkt", "ns", "lower"},
	{"sim.schedule_fire_ns", "ns", "lower"},
	{"trace.synth_us_per_trace", "us", "lower"},
	{"video.synthesize_ns_per_KiB", "ns", "lower"},
	// The benchmark's own accounting.
	{"obs.tracer_slowdown_share", "ratio", "lower"},
	{"bench.trace_overhead_share", "ratio", "lower"},
	{"bench.unattributed_share", "ratio", "lower"},
}
