package transport

import (
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/sim"
	"repro/internal/wire"
)

func newBenchSealer(b *testing.B) *crypto.Sealer {
	b.Helper()
	s, err := crypto.NewSealer([]byte("packet-bench-secret-0123456789ab"), "dir")
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// Benchmarks for the transport hot path. BenchmarkRoundTrip is the headline
// number of DESIGN.md §11: one application write driven through packet
// assembly, sealing, emulated delivery, decryption, reassembly and the
// returning acknowledgement — the full per-packet cost of the stack. Its
// allocs/op is gated in scripts/check.sh (TestAllocGateRoundTrip).

var (
	benchPkt   []byte
	benchBytes uint64
)

// benchPair builds an established two-path client/server pair tuned for
// fast virtual round trips: ~2ms RTT and a 1ms ack delay, so one
// write→deliver→ack cycle completes inside a 5ms RunUntil window.
func benchPair(tb testing.TB, got *uint64) *Pair {
	tb.Helper()
	params := wire.DefaultTransportParams()
	params.EnableMultipath = true
	ccfg := Config{Params: params, Seed: 1, MaxAckDelay: time.Millisecond}
	scfg := Config{Params: params, Seed: 2, MaxAckDelay: time.Millisecond}
	serverOnData := func(now time.Duration, s *RecvStream, data []byte, fin bool) {
		*got += uint64(len(data))
	}
	loop := sim.NewLoop()
	pair := NewPair(loop, sim.NewRNG(7),
		TwoPathConfig(200, 200, 2*time.Millisecond, 6*time.Millisecond), ccfg, scfg)
	pair.Server.SetOnStreamData(serverOnData)
	if err := pair.Start(); err != nil {
		tb.Fatal(err)
	}
	pair.RunUntil(500 * time.Millisecond)
	if !pair.Client.Established() || !pair.Server.Established() {
		tb.Fatal("bench pair did not establish")
	}
	return pair
}

// roundTrip drives one single-packet send→recv→ack cycle.
func roundTrip(pair *Pair, st *SendStream, payload []byte) {
	st.Write(payload)
	pair.RunUntil(pair.Loop.Now() + 5*time.Millisecond)
}

// BenchmarkRoundTrip measures one 1200-byte application write through the
// full pipeline: packet build + seal on the client, netem delivery, open +
// frame parse + reassembly on the server, delayed ack back, ack processing
// on the client. The pair is recycled every few thousand iterations so
// stream buffers stay bounded.
func BenchmarkRoundTrip(b *testing.B) {
	payload := make([]byte, 1200)
	var got uint64
	var pair *Pair
	var st *SendStream
	const perPair = 4096
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if i%perPair == 0 {
			b.StopTimer()
			pair = benchPair(b, &got)
			st = pair.Client.OpenStream()
			roundTrip(pair, st, payload) // prime stream + flow-control state
			b.StartTimer()
		}
		roundTrip(pair, st, payload)
	}
	b.StopTimer()
	if got == 0 {
		b.Fatal("no data delivered")
	}
	benchBytes = got
}

// BenchmarkSealPacket measures 1-RTT packet assembly and protection alone:
// frame serialization into the reused packet scratch plus in-place AEAD seal
// and header protection — the sender half of the hot path (sealShortInto),
// without the event loop.
func BenchmarkSealPacket(b *testing.B) {
	sealer := newBenchSealer(b)
	dcid := wire.ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}
	data := make([]byte, 1200)
	frames := []wire.Frame{&wire.StreamFrame{StreamID: 4, Offset: 1 << 16, Data: data}}
	var buf []byte
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		benchPkt = sealShortInto(buf[:0], sealer, dcid, 1, uint64(i), int64(i)-1, frames)
		buf = benchPkt[:0]
	}
}

// BenchmarkOpenPacket measures the receiver half: header unprotection,
// in-place AEAD open into the reused receive scratch, and frame parsing of a
// sealed 1-RTT packet.
func BenchmarkOpenPacket(b *testing.B) {
	sealer := newBenchSealer(b)
	dcid := wire.ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}
	data := make([]byte, 1200)
	sf := &wire.StreamFrame{StreamID: 4, Offset: 1 << 16, Data: data}
	payload := wire.AppendAll(nil, []wire.Frame{sf})
	pkt := sealShort(sealer, dcid, 1, 42, 40, payload)
	var scratch []byte
	var frameScratch []wire.Frame
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		pn, plain, buf, err := openShort(sealer, scratch, pkt, len(dcid), 1, 41)
		if err != nil || pn != 42 {
			b.Fatalf("open: pn=%d err=%v", pn, err)
		}
		scratch = buf
		frames, err := wire.AppendFrames(frameScratch[:0], plain)
		if err != nil || len(frames) != 1 {
			b.Fatalf("parse: %d frames, err=%v", len(frames), err)
		}
		frameScratch = frames
	}
}
