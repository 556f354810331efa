package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/netem"
	"repro/internal/qoe"
	"repro/internal/rangeset"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/video"
	"repro/internal/wire"
)

// The probe suite times the exported functions of the inner layers that
// spans cannot separate from outside (crypto, wire, recovery, rangeset, cc,
// qoe, netem.Link, sim.Loop, trace, video.SynthesizeContent). Every probe
// uses the MTU-STREAM shape the bulk workloads put on the wire: a 1200-byte
// stream frame in a datagram of about 1250 bytes. Results land in sink so
// the calls are not optimised away.

const probePayload = 1200

var sink struct {
	bytes  []byte
	frame  wire.Frame
	frames []wire.Frame
	mask   [5]byte
	n      uint64
	ok     bool
	pkts   []*recovery.SentPacket
	ack    recovery.AckResult
	tr     *trace.Trace
}

// probe measures one per-layer metric; run returns the value of one round.
type probe struct {
	metric string
	run    func() float64
}

// prober runs probe loops at 1/shrink of their full iteration count.
type prober struct{ shrink int }

// perOp times iters/shrink calls of fn and returns nanoseconds per call.
func (p prober) perOp(iters int, fn func(i int)) float64 {
	iters = (iters + p.shrink - 1) / p.shrink
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(iters)
}

func probePacket() (header, payload []byte) {
	header = make([]byte, 13)
	for i := range header {
		header[i] = byte(i)
	}
	header[0] = 0x42
	payload = make([]byte, probePayload)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	return header, payload
}

func probeSealer() *crypto.Sealer {
	s, err := crypto.NewSealer([]byte("benchmark-probe-secret"), "client")
	if err != nil {
		panic(err) // NewSealer fails only on a malformed label: a bug here
	}
	return s
}

func probeAckMP() *wire.AckMPFrame {
	return &wire.AckMPFrame{
		PathID:   1,
		Ranges:   []wire.AckRange{{Smallest: 90, Largest: 120}, {Smallest: 70, Largest: 80}, {Smallest: 10, Largest: 50}},
		AckDelay: 3 * time.Millisecond,
		HasQoE:   true,
		QoE:      wire.QoESignal{CachedBytes: 1 << 20, CachedFrames: 250, BitrateBps: 8_000_000, FramerateFPS: 30},
	}
}

// probeOnAck times Space.OnAck on a long-lived space: each call newly
// acknowledges 32 packets with one cumulative range spanning span packet
// numbers, the shape a receiver that never trims its ACK ranges produces.
func (pr prober) probeOnAck(span uint64) float64 {
	const newly = 32
	// About 10 ms of timed OnAck calls at either span.
	calls := (1<<17/int(span) + pr.shrink) / pr.shrink
	s := recovery.NewSpace(cc.NewRTTEstimator())
	pkts := make([]recovery.SentPacket, (calls+1)*newly+int(span))
	now := time.Duration(0)
	next := 0
	send := func(n int) {
		for i := 0; i < n; i++ {
			sp := &pkts[next]
			next++
			sp.PN, sp.SentAt, sp.Bytes, sp.AckEliciting = s.NextPN(), now, 1250, true
			s.OnPacketSent(sp)
			now += 10 * time.Microsecond
		}
	}
	ackTo := func(largest uint64) recovery.AckResult {
		smallest := uint64(0)
		if largest+1 > span {
			smallest = largest + 1 - span
		}
		return s.OnAck([]wire.AckRange{{Smallest: smallest, Largest: largest}}, 0, now+20*time.Millisecond)
	}
	// Age the space: span packets already acknowledged and collected.
	send(int(span))
	sink.ack = ackTo(span - 1)
	var total time.Duration
	for c := 0; c < calls; c++ {
		send(newly)
		t0 := time.Now()
		sink.ack = ackTo(s.PeekPN() - 1)
		total += time.Since(t0)
	}
	return float64(total) / float64(calls)
}

// probeSuite lists every probe, in catalog order.
func (pr prober) probeSuite() []probe {
	perOp := pr.perOp
	header, payload := probePacket()
	stream := &wire.StreamFrame{StreamID: 4, Offset: 1 << 20, Data: payload}
	streamWire := stream.Append(nil)
	ackWire := probeAckMP().Append(nil)

	return []probe{
		{"crypto.seal_ns_per_pkt", func() float64 {
			s := probeSealer()
			buf := make([]byte, 0, len(header)+len(payload)+crypto.Overhead)
			return perOp(20000, func(i int) {
				buf = append(buf[:0], header...)
				buf = s.Seal(buf, buf[:len(header)], payload, 1, uint64(i))
				sink.bytes = buf
			})
		}},
		{"crypto.open_ns_per_pkt", func() float64 {
			s := probeSealer()
			pkt := s.Seal(append([]byte(nil), header...), header, payload, 1, 42)
			scratch := make([]byte, 0, len(payload)+crypto.Overhead)
			return perOp(20000, func(int) {
				out, err := s.Open(scratch[:0], pkt[:len(header)], pkt[len(header):], 1, 42)
				sink.bytes, sink.ok = out, err == nil
			})
		}},
		{"crypto.header_mask_ns", func() float64 {
			s := probeSealer()
			sample := make([]byte, 16)
			return perOp(100000, func(int) { sink.mask = s.HeaderMask(sample) })
		}},
		{"wire.stream_append_ns", func() float64 {
			buf := make([]byte, 0, 1500)
			return perOp(200000, func(int) { buf = stream.Append(buf[:0]); sink.bytes = buf })
		}},
		{"wire.stream_parse_ns", func() float64 {
			return perOp(200000, func(int) {
				f, _, err := wire.ParseFrame(streamWire)
				sink.frame, sink.ok = f, err == nil
			})
		}},
		{"wire.ack_mp_parse_ns", func() float64 {
			return perOp(200000, func(int) {
				f, _, err := wire.ParseFrame(ackWire)
				sink.frame, sink.ok = f, err == nil
			})
		}},
		{"wire.parse_allocs_per_pkt", func() float64 {
			// The 1-RTT receive path: parse a data packet's payload into a
			// reused frame scratch.
			const iters = 20000
			scratch := make([]wire.Frame, 0, 8)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < iters; i++ {
				fs, err := wire.AppendFrames(scratch[:0], streamWire)
				sink.frames, sink.ok = fs, err == nil
			}
			runtime.ReadMemStats(&after)
			return float64(after.Mallocs-before.Mallocs) / iters
		}},
		{"recovery.on_sent_ns", func() float64 {
			const n = 4096
			s := recovery.NewSpace(cc.NewRTTEstimator())
			pkts := make([]recovery.SentPacket, n)
			return perOp(n, func(i int) {
				sp := &pkts[i]
				sp.PN, sp.SentAt, sp.Bytes, sp.AckEliciting = s.NextPN(), time.Duration(i)*time.Microsecond, 1250, true
				s.OnPacketSent(sp)
			})
		}},
		{"recovery.on_ack_ns_span64", func() float64 { return pr.probeOnAck(64) }},
		{"recovery.on_ack_ns_span16k", func() float64 { return pr.probeOnAck(16384) }},
		{"recovery.detect_lost_ns_inflight256", func() float64 {
			s := recovery.NewSpace(cc.NewRTTEstimator())
			pkts := make([]recovery.SentPacket, 257)
			for i := range pkts {
				sp := &pkts[i]
				sp.PN, sp.SentAt, sp.Bytes, sp.AckEliciting = s.NextPN(), time.Duration(i)*time.Microsecond, 1250, true
				s.OnPacketSent(sp)
			}
			// Acknowledge the first packet so loss detection has a largest
			// acked to compare against; 256 stay in flight, none yet lost.
			sink.ack = s.OnAck([]wire.AckRange{{Smallest: 0, Largest: 0}}, 0, time.Millisecond)
			return perOp(5000, func(int) { sink.pkts = s.OnLossTimeout(time.Millisecond) })
		}},
		{"rangeset.add_seq_ns", func() float64 {
			var s rangeset.Set
			return perOp(500000, func(i int) {
				sink.n = s.Add(uint64(i)*probePayload, uint64(i+1)*probePayload)
			})
		}},
		{"rangeset.add_gap_ns", func() float64 {
			// Out-of-order arrival: open 64 gaps at the tail, then fill them
			// newest first so every fill merges two ranges.
			const gaps, blocks = 64, 500
			var s rangeset.Set
			base := uint64(0)
			return perOp(blocks, func(int) {
				for k := uint64(0); k < gaps; k++ {
					sink.n = s.Add(base+2*k, base+2*k+1)
				}
				for k := uint64(gaps); k > 0; k-- {
					sink.n = s.Add(base+2*k-1, base+2*k)
				}
				base += 2 * gaps
			}) / (2 * gaps)
		}},
		{"cc.on_ack_ns", func() float64 {
			// One packet sent and acknowledged per call: the controller's
			// accounting needs the matching OnPacketSent.
			c := cc.New(cc.AlgCubic)
			return perOp(200000, func(i int) {
				now := time.Duration(i) * 100 * time.Microsecond
				c.OnPacketSent(now, 1250)
				c.OnPacketAcked(now+20*time.Millisecond, 1250, 20*time.Millisecond)
				sink.n = uint64(c.Window())
			})
		}},
		{"qoe.decide_ns", func() float64 {
			c := qoe.NewController(core.DefaultThresholds)
			c.OnSignal(0, wire.QoESignal{CachedBytes: 2 << 20, CachedFrames: 60, BitrateBps: 8_000_000, FramerateFPS: 30})
			return perOp(200000, func(i int) {
				sink.ok = c.Decide(time.Duration(i)*time.Microsecond, 50*time.Millisecond)
			})
		}},
		{"netem.link_ns_per_pkt", func() float64 {
			const batch, batches = 16, 500
			loop := sim.NewLoop()
			delivered := 0
			link := netem.NewLink(loop, netem.LinkConfig{
				Trace: trace.ConstantRate("probe", 1000, time.Second), Delay: time.Millisecond,
			}, sim.NewRNG(1), func(time.Duration, []byte) { delivered++ })
			pkts := make([][]byte, batch)
			for i := range pkts {
				pkts[i] = make([]byte, 1250)
			}
			ns := perOp(batches, func(int) {
				link.SendBatch(pkts)
				loop.RunUntil(loop.Now() + 5*time.Millisecond)
			}) / batch
			sink.n = uint64(delivered)
			if delivered != batch*batches {
				return 0 // the link dropped probe packets: the figure would mislead
			}
			return ns
		}},
		{"sim.schedule_fire_ns", func() float64 {
			const n = 100000
			loop := sim.NewLoop()
			fired := 0
			fn := func(time.Duration) { fired++ }
			ns := perOp(1, func(int) {
				for i := 0; i < n; i++ {
					loop.After(time.Duration(i%1000)*time.Microsecond, fn)
				}
				loop.RunUntil(time.Second)
			}) / n
			sink.n = uint64(fired)
			return ns
		}},
		{"trace.synth_us_per_trace", func() float64 {
			rng := sim.NewRNG(1)
			return perOp(20, func(int) { sink.tr = trace.WalkingLTE(rng, 40*time.Second) }) / 1e3
		}},
		{"video.synthesize_ns_per_KiB", func() float64 {
			const kib = 64
			return perOp(500, func(i int) {
				sink.bytes = video.SynthesizeContent("probe", uint64(i)*kib<<10, kib<<10)
			}) / kib
		}},
	}
}

// runProbes runs every probe p.probeRounds times and returns the medians.
func runProbes(pl plan) map[string]float64 {
	out := map[string]float64{}
	for _, p := range (prober{pl.probeShrink}).probeSuite() {
		vals := make([]float64, pl.probeRounds)
		for r := range vals {
			vals[r] = p.run()
		}
		out[p.metric] = median(vals)
	}
	return out
}

// budgetCounts are the per-run operation counts the budget multiplies the
// probes' unit costs by. A count the workload cannot observe from outside
// stays 0 and its rows fall into the unattributed remainder.
type budgetCounts struct {
	dataPkts  uint64 // datagrams the serving end sent
	ackPkts   uint64 // datagrams the requesting end sent
	events    uint64 // sim loop events fired
	appKiB    float64
	decisions uint64 // Alg. 1 gate consultations
	emulated  bool   // packets crossed netem links
}

// budgetRow is one line of the cost budget.
type budgetRow struct {
	Layer   string  `json:"layer"`
	Count   float64 `json:"count"`
	UnitNS  float64 `json:"unit_ns"`
	TotalMS float64 `json:"total_ms"`
	Share   float64 `json:"share_of_cpu"`
}

// budget is Σ count × unit cost per inner layer against the measured CPU of
// the untraced run; the last row is the remainder no probe accounts for.
func budget(c budgetCounts, pv map[string]float64, cpuS float64) ([]budgetRow, float64) {
	all := float64(c.dataPkts + c.ackPkts)
	data, acks := float64(c.dataPkts), float64(c.ackPkts)
	row := func(layer string, count, unit float64) budgetRow {
		return budgetRow{Layer: layer, Count: count, UnitNS: unit, TotalMS: count * unit / 1e6, Share: ratio(count*unit/1e9, cpuS)}
	}
	link := 0.0
	if c.emulated {
		link = all
	}
	rows := []budgetRow{
		// MTU data packets only: an ACK-only packet seals far fewer bytes.
		row("crypto seal+open (data pkts)", data, pv["crypto.seal_ns_per_pkt"]+pv["crypto.open_ns_per_pkt"]),
		row("crypto header mask (all pkts, both ends)", 2*all, pv["crypto.header_mask_ns"]),
		row("wire stream append+parse", data, pv["wire.stream_append_ns"]+pv["wire.stream_parse_ns"]),
		row("wire ack_mp parse", acks, pv["wire.ack_mp_parse_ns"]),
		row("recovery on_sent", all, pv["recovery.on_sent_ns"]),
		row("recovery on_ack (span 64)", acks, pv["recovery.on_ack_ns_span64"]),
		row("rangeset add (pn + reassembly)", 2*data, pv["rangeset.add_seq_ns"]),
		row("cc on_ack", data, pv["cc.on_ack_ns"]),
		row("qoe decide", float64(c.decisions), pv["qoe.decide_ns"]),
		row("netem link", link, pv["netem.link_ns_per_pkt"]),
		row("sim schedule+fire", float64(c.events), pv["sim.schedule_fire_ns"]),
		row("video synthesize (serve + verify)", 2*c.appKiB, pv["video.synthesize_ns_per_KiB"]),
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.Share
	}
	rows = append(rows, budgetRow{Layer: "unattributed", TotalMS: (1 - sum) * cpuS * 1e3, Share: 1 - sum})
	return rows, 1 - sum
}

func printBudget(w io.Writer, rows []budgetRow, cpuS float64) {
	fmt.Fprintf(w, "  inner-layer budget: count x probe unit cost against %.0f ms CPU of the untraced run\n", cpuS*1e3)
	for _, r := range rows {
		if r.Count == 0 && r.UnitNS == 0 {
			fmt.Fprintf(w, "    %-42s %27s %9.1f ms  %6.2f%%\n", r.Layer, "", r.TotalMS, r.Share*100)
			continue
		}
		fmt.Fprintf(w, "    %-42s %12.0f x %9.1f ns = %9.1f ms  %6.2f%%\n", r.Layer, r.Count, r.UnitNS, r.TotalMS, r.Share*100)
	}
}
