// Command gen_corpus regenerates the committed fuzz seed corpora under
// internal/wire/testdata/fuzz/. Run from the repository root:
//
//	go run ./internal/wire/testdata
//
// Each seed is one wire encoding produced by the package's own Append
// functions, so the corpora track the format as it evolves. Counterexamples
// minimized by `go test -fuzz` land in the same directories and should be
// committed alongside these.
package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/wire"
)

func main() {
	root := "internal/wire/testdata/fuzz"
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "gen_corpus: run from the repository root")
		os.Exit(1)
	}

	writeAll(filepath.Join(root, "FuzzParseVarint"), varintSeeds())
	writeAll(filepath.Join(root, "FuzzParseHeader"), headerSeeds())
	writeAll(filepath.Join(root, "FuzzParseFrame"), frameSeeds())
	writeAll(filepath.Join(root, "FuzzParseFECFrame"), fecSeeds())
	writeAll(filepath.Join(root, "FuzzParseTransportParams"), transportParamSeeds())
}

func varintSeeds() [][]byte {
	var seeds [][]byte
	for _, v := range []uint64{0, 1, 63, 64, 16383, 16384, 1<<30 - 1, 1 << 30, wire.MaxVarint} {
		seeds = append(seeds, wire.AppendVarint(nil, v))
	}
	seeds = append(seeds,
		[]byte{0x40, 0x25},                                     // non-minimal 37
		[]byte{0x80, 0, 0, 63},                                 // non-minimal 63
		[]byte{0xc0, 0, 0, 0, 0, 0, 0},                         // truncated 8-byte form
		[]byte{0xc0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // near-max value
	)
	return seeds
}

func headerSeeds() [][]byte {
	dcid := wire.ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}
	scid := wire.ConnectionID{9, 10, 11, 12}
	var seeds [][]byte

	pnLen := wire.PacketNumberLen(7, -1)
	long := wire.AppendLong(nil, dcid, scid, 7, pnLen, pnLen+4)
	seeds = append(seeds, append(long, 0, 0, 0, 0))

	// Zero-length CIDs and a 4-byte packet number.
	long = wire.AppendLong(nil, nil, nil, 1<<24, 4, 4)
	seeds = append(seeds, long)

	seeds = append(seeds,
		[]byte{0xc0}, // truncated long
		[]byte{0xfc, '0', '0', '0', '0', 0, 0, 0, '0'}, // length < pnLen (regression)
	)

	// CIDs at MaxCIDLen, the longest the parser accepts.
	maxCID := make(wire.ConnectionID, wire.MaxCIDLen)
	for i := range maxCID {
		maxCID[i] = byte(i + 1)
	}
	long = wire.AppendLong(nil, maxCID, maxCID, 300, 2, 2+3)
	seeds = append(seeds, append(long, 0, 0, 0))

	// A length field that runs past the end of the datagram.
	long = wire.AppendLong(nil, dcid, scid, 7, pnLen, pnLen+64)
	seeds = append(seeds, append(long, 0, 0, 0, 0))
	return seeds
}

func frameSeeds() [][]byte {
	frames := []wire.Frame{
		&wire.PaddingFrame{Count: 5},
		&wire.PingFrame{},
		&wire.AckFrame{Ranges: []wire.AckRange{{Smallest: 8, Largest: 10}, {Smallest: 1, Largest: 3}},
			AckDelay: 25 * time.Microsecond},
		&wire.AckMPFrame{PathID: 3, Ranges: []wire.AckRange{{Smallest: 0, Largest: 7}},
			AckDelay: time.Millisecond},
		&wire.AckMPFrame{PathID: 1, Ranges: []wire.AckRange{{Smallest: 2, Largest: 9}}, HasQoE: true,
			QoE: wire.QoESignal{CachedBytes: 1 << 20, CachedFrames: 120, BitrateBps: 2_000_000, FramerateFPS: 30}},
		&wire.PathStatusFrame{PathID: 2, StatusSeq: 5, Status: wire.PathStandby},
		&wire.StreamFrame{StreamID: 4, Offset: 1234, Data: []byte("hello"), Fin: true},
		&wire.CryptoFrame{Offset: 10, Data: []byte{1, 2, 3}},
		&wire.ResetStreamFrame{StreamID: 12, ErrorCode: 5, FinalSize: 100000},
		&wire.StopSendingFrame{StreamID: 16, ErrorCode: 2},
		&wire.MaxDataFrame{MaxData: 1 << 24},
		&wire.MaxStreamDataFrame{StreamID: 8, MaxStreamData: 1 << 22},
		&wire.NewConnectionIDFrame{Sequence: 2, RetirePrior: 1,
			ConnectionID: wire.ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}, ResetToken: [16]byte{9, 9, 9}},
		&wire.PathChallengeFrame{Data: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}},
		&wire.PathResponseFrame{Data: [8]byte{8, 7, 6, 5, 4, 3, 2, 1}},
		&wire.ConnectionCloseFrame{ErrorCode: 0x0a, Reason: "bye"},
		&wire.HandshakeDoneFrame{},
		&wire.FECWindowFrame{WindowID: 3, StreamID: 4, BaseOffset: 8192, DataLen: 4096,
			SymbolSize: 1024, Scheme: wire.FECSchemeRS, Repairs: 2},
		&wire.FECRepairFrame{WindowID: 3, Index: 1, Data: []byte("repair-symbol")},
		&wire.FECRecoveredFrame{StreamID: 4, Offset: 9216, Length: 1024},
	}
	var seeds [][]byte
	for _, f := range frames {
		seeds = append(seeds, f.Append(nil))
	}
	seeds = append(seeds, []byte{0x40, 0x00, 0x00}) // non-minimal PADDING type
	// Retired frame types (QOE_CONTROL_SIGNALS, DATA_BLOCKED,
	// STREAM_DATA_BLOCKED, RETIRE_CONNECTION_ID) in their old encodings:
	// the parser must reject each, and FuzzParseFrame checks that it does.
	seeds = append(seeds,
		[]byte{0x80, 0xba, 0xba, 0x10, 0x09, 0x53, 0x88, 0x0a, 0x43, 0xe8, 0x18},
		[]byte{0x14, 0x43, 0xe7},
		[]byte{0x15, 0x04, 0x43, 0x09},
		[]byte{0x19, 0x07},
	)
	return seeds
}

func fecSeeds() [][]byte {
	frames := []wire.Frame{
		&wire.FECWindowFrame{WindowID: 0, StreamID: 0, BaseOffset: 0, DataLen: 1,
			SymbolSize: 1, Scheme: wire.FECSchemeXOR, Repairs: 1},
		&wire.FECWindowFrame{WindowID: 1, StreamID: 4, BaseOffset: 1 << 40,
			DataLen:    wire.MaxFECSourceSymbols * wire.MaxFECSymbolSize,
			SymbolSize: wire.MaxFECSymbolSize,
			Scheme:     wire.FECSchemeRS, Repairs: wire.MaxFECRepairSymbols},
		&wire.FECWindowFrame{WindowID: 2, StreamID: 8, BaseOffset: 4096, DataLen: 1025,
			SymbolSize: 1024, Scheme: wire.FECSchemeRS, Repairs: 2}, // short tail symbol
		&wire.FECRepairFrame{WindowID: 1, Index: 0, Data: []byte{0xff}},
		&wire.FECRepairFrame{WindowID: 2, Index: wire.MaxFECRepairSymbols - 1,
			Data: bytes.Repeat([]byte{0xab}, wire.MaxFECSymbolSize)},
		&wire.FECRecoveredFrame{StreamID: 4, Offset: 0, Length: 1},
		&wire.FECRecoveredFrame{StreamID: 8, Offset: 1<<62 - 2, Length: 1},
		// Rejection boundaries, kept so mutation starts from them.
		&wire.FECWindowFrame{WindowID: 1, StreamID: 1, DataLen: 1, SymbolSize: 1,
			Scheme: wire.FECSchemeXOR, Repairs: 2}, // xor with 2 repairs
		&wire.FECRecoveredFrame{StreamID: 1, Offset: 1<<62 - 1, Length: 1 << 61}, // overflow
		// One frame just beyond each remaining bound (TestFECFrameBounds has
		// the same rows): the fuzz target asserts the bounds on whatever
		// parses, so a parser that lost one fails on its seed in plain
		// `go test`, without waiting for the fuzzer to find the value.
		&wire.FECWindowFrame{WindowID: 3, StreamID: 4, DataLen: 1, SymbolSize: 0,
			Scheme: wire.FECSchemeRS, Repairs: 1},
		&wire.FECWindowFrame{WindowID: 3, StreamID: 4, DataLen: 1, SymbolSize: wire.MaxFECSymbolSize + 1,
			Scheme: wire.FECSchemeRS, Repairs: 1},
		&wire.FECWindowFrame{WindowID: 3, StreamID: 4, DataLen: 0, SymbolSize: 1024,
			Scheme: wire.FECSchemeRS, Repairs: 1},
		&wire.FECWindowFrame{WindowID: 3, StreamID: 4, DataLen: wire.MaxFECSourceSymbols*1024 + 1, SymbolSize: 1024,
			Scheme: wire.FECSchemeRS, Repairs: 1},
		&wire.FECWindowFrame{WindowID: 3, StreamID: 4, DataLen: 2048, SymbolSize: 1024,
			Scheme: wire.FECSchemeRS + 1, Repairs: 1},
		&wire.FECWindowFrame{WindowID: 3, StreamID: 4, DataLen: 2048, SymbolSize: 1024,
			Scheme: wire.FECSchemeRS, Repairs: 0},
		&wire.FECWindowFrame{WindowID: 3, StreamID: 4, DataLen: 2048, SymbolSize: 1024,
			Scheme: wire.FECSchemeRS, Repairs: wire.MaxFECRepairSymbols + 1},
		&wire.FECRepairFrame{WindowID: 3, Index: wire.MaxFECRepairSymbols, Data: []byte{0xff}},
		&wire.FECRepairFrame{WindowID: 3, Index: 0},
		&wire.FECRepairFrame{WindowID: 3, Index: 0,
			Data: bytes.Repeat([]byte{0xab}, wire.MaxFECSymbolSize+1)},
		&wire.FECRecoveredFrame{StreamID: 4, Offset: 4096, Length: 0},
	}
	var seeds [][]byte
	for _, f := range frames {
		seeds = append(seeds, f.Append(nil))
	}
	return seeds
}

func transportParamSeeds() [][]byte {
	intParam := func(id, v uint64) []byte {
		b := wire.AppendVarint(nil, id)
		b = wire.AppendVarint(b, uint64(wire.VarintLen(v)))
		return wire.AppendVarint(b, v)
	}
	flag := func(id uint64) []byte { return wire.AppendVarint(wire.AppendVarint(nil, id), 0) }
	unknown := append(wire.AppendVarint(wire.AppendVarint(nil, 0x7777), 2), 0xde, 0xad)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	full := wire.DefaultTransportParams()
	full.EnableMultipath, full.EnableFEC = true, true
	idle := intParam(wire.ParamMaxIdleTimeout, 30000) // a four-byte value
	return [][]byte{
		wire.DefaultTransportParams().Append(nil),
		full.Append(nil),
		{},
		cat(unknown, flag(wire.ParamEnableMultipath)),
		// Rejection boundaries (TestParseTransportParamsRejects has the same
		// rows): the last value shorter than its length varint, a value longer
		// than its varint, a repeated integer parameter and a repeated flag.
		idle[:len(idle)-1],
		cat(wire.AppendVarint(wire.AppendVarint(nil, wire.ParamMaxIdleTimeout), 2), []byte{0x05, 0x00}),
		cat(intParam(wire.ParamInitialMaxData, 1), intParam(wire.ParamInitialMaxData, 2)),
		cat(flag(wire.ParamEnableFEC), flag(wire.ParamEnableFEC)),
		// A repeated unknown parameter stays legal, the multipath draft's
		// initial_reinjection and qoe_feedback_interval among them.
		cat(unknown, unknown),
		cat(flag(0x0f739bbc1b666d06), flag(0x0f739bbc1b666d06),
			intParam(0x0f739bbc1b666d07, 100), intParam(0x0f739bbc1b666d07, 100)),
	}
}

func writeAll(dir string, seeds [][]byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	for i, s := range seeds {
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("%s: %d seeds\n", dir, len(seeds))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gen_corpus:", err)
	os.Exit(1)
}
