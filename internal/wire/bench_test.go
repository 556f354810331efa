package wire

import (
	"testing"
	"time"
)

// Benchmarks for the wire hot path: varint and frame encode/decode. These
// run per packet on every send and receive, so they are alloc-gated (see
// DESIGN.md §11).

var (
	benchBytes  []byte
	benchUint   uint64
	benchFrame  Frame
	benchFrames []Frame
)

// benchVarints covers all four encoding lengths.
var benchVarints = []uint64{37, 15000, 1 << 28, 1 << 60}

func BenchmarkVarintAppend(b *testing.B) {
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, v := range benchVarints {
			buf = AppendVarint(buf, v)
		}
	}
	benchBytes = buf
}

func BenchmarkVarintParse(b *testing.B) {
	var buf []byte
	for _, v := range benchVarints {
		buf = AppendVarint(buf, v)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rest := buf
		for len(rest) > 0 {
			v, n, err := ParseVarint(rest)
			if err != nil {
				b.Fatal(err)
			}
			benchUint = v
			rest = rest[n:]
		}
	}
}

func BenchmarkStreamFrameAppend(b *testing.B) {
	data := make([]byte, 1200)
	f := &StreamFrame{StreamID: 4, Offset: 1 << 20, Data: data, Fin: false}
	buf := make([]byte, 0, 1500)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		buf = f.Append(buf[:0])
	}
	benchBytes = buf
}

func BenchmarkStreamFrameParse(b *testing.B) {
	data := make([]byte, 1200)
	f := &StreamFrame{StreamID: 4, Offset: 1 << 20, Data: data, Fin: true}
	buf := f.Append(nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		fr, _, err := ParseFrame(buf)
		if err != nil {
			b.Fatal(err)
		}
		benchFrame = fr
	}
}

func benchAckMP() *AckMPFrame {
	return &AckMPFrame{
		PathID: 1,
		Ranges: []AckRange{
			{Smallest: 90, Largest: 120},
			{Smallest: 70, Largest: 80},
			{Smallest: 10, Largest: 50},
		},
		AckDelay: 3 * time.Millisecond,
		HasQoE:   true,
		QoE:      QoESignal{CachedBytes: 1 << 20, CachedFrames: 250, BitrateBps: 2_000_000, FramerateFPS: 25},
	}
}

func BenchmarkAckMPAppend(b *testing.B) {
	f := benchAckMP()
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = f.Append(buf[:0])
	}
	benchBytes = buf
}

func BenchmarkAckMPParse(b *testing.B) {
	buf := benchAckMP().Append(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fr, _, err := ParseFrame(buf)
		if err != nil {
			b.Fatal(err)
		}
		benchFrame = fr
	}
}

// BenchmarkParseAllPayload decodes a realistic 1-RTT payload: an ACK_MP, a
// control frame, and a maximum-size stream frame.
func BenchmarkParseAllPayload(b *testing.B) {
	var payload []byte
	payload = benchAckMP().Append(payload)
	payload = (&MaxDataFrame{MaxData: 1 << 30}).Append(payload)
	payload = (&StreamFrame{StreamID: 4, Offset: 1 << 16, Data: make([]byte, 1100)}).Append(payload)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		frames, err := ParseAll(payload)
		if err != nil {
			b.Fatal(err)
		}
		benchFrames = frames
	}
}
