package wire

import (
	"bytes"
	"testing"
	"time"
)

// FuzzParseVarint checks the varint codec's parse↔encode fixed point: any
// parseable input re-encodes minimally and reparses to the same value, and
// ParseVarintMinimal accepts exactly the minimal encodings ParseVarint does.
func FuzzParseVarint(f *testing.F) {
	for _, v := range []uint64{0, 1, 63, 64, 16383, 16384, 1<<30 - 1, 1 << 30, MaxVarint} {
		f.Add(AppendVarint(nil, v))
	}
	f.Add([]byte{0x40, 0x25})             // non-minimal 37
	f.Add([]byte{0xc0, 0, 0, 0, 0, 0, 0}) // truncated 8-byte form
	f.Fuzz(func(t *testing.T, b []byte) {
		v, n, err := ParseVarint(b)
		if err != nil {
			if _, _, err2 := ParseVarintMinimal(b); err2 == nil {
				t.Fatal("ParseVarintMinimal accepted input ParseVarint rejected")
			}
			return
		}
		if n < 1 || n > len(b) || n > 8 {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if v > MaxVarint {
			t.Fatalf("value %d exceeds MaxVarint", v)
		}
		enc := AppendVarint(nil, v)
		if len(enc) != VarintLen(v) {
			t.Fatalf("VarintLen(%d)=%d, encoded %d", v, VarintLen(v), len(enc))
		}
		v2, n2, err := ParseVarintMinimal(enc)
		if err != nil || v2 != v || n2 != len(enc) {
			t.Fatalf("re-encode of %d: got %d n=%d err=%v", v, v2, n2, err)
		}
		// Minimality cross-check: ParseVarintMinimal succeeds iff the input
		// used the shortest form.
		vm, nm, errm := ParseVarintMinimal(b)
		if minimal := n == VarintLen(v); minimal != (errm == nil) {
			t.Fatalf("minimal=%v but ParseVarintMinimal err=%v", minimal, errm)
		} else if minimal && (vm != v || nm != n) {
			t.Fatalf("ParseVarintMinimal disagrees: %d/%d vs %d/%d", vm, nm, v, n)
		}
	})
}

// FuzzParseHeader checks that long-header parsing never panics and that
// parsed headers survive a canonical re-encode: re-serializing the parsed
// fields and reparsing yields the same fields. Short headers are parsed where
// they are opened, by the transport (FuzzOpenShort there).
func FuzzParseHeader(f *testing.F) {
	dcid := ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}
	scid := ConnectionID{9, 10, 11, 12}
	long := AppendLong(nil, dcid, scid, 7, PacketNumberLen(7, -1), 1+4)
	f.Add(append(long, []byte{0, 0, 0, 0}...))
	f.Add([]byte{0xc0})
	f.Add(AppendLong(nil, nil, nil, 1<<24, 4, 4))         // zero-length CIDs
	f.Add([]byte{0xfc, '0', '0', '0', '0', 0, 0, 0, '0'}) // length < pnLen
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 || !IsLongHeader(b[0]) {
			return
		}
		h, hdrLen, end, err := ParseLong(b, -1)
		if err != nil {
			return
		}
		if hdrLen > end || end > len(b) || hdrLen < h.PNLen {
			t.Fatalf("bounds: hdrLen=%d end=%d len=%d", hdrLen, end, len(b))
		}
		payload := end - hdrLen
		enc := AppendLong(nil, h.DCID, h.SCID, h.PacketNumber, h.PNLen, h.PNLen+payload)
		enc = append(enc, make([]byte, payload)...)
		h2, hdrLen2, end2, err := ParseLong(enc, -1)
		if err != nil {
			t.Fatalf("re-encoded long header rejected: %v", err)
		}
		if !h2.DCID.Equal(h.DCID) || !h2.SCID.Equal(h.SCID) ||
			h2.PacketNumber != h.PacketNumber || h2.PNLen != h.PNLen {
			t.Fatalf("long round trip:\n first %+v\n again %+v", h, h2)
		}
		if end2-hdrLen2 != payload {
			t.Fatalf("payload size changed: %d -> %d", payload, end2-hdrLen2)
		}
	})
}

// FuzzParseFrame checks that frame parsing never panics on arbitrary input
// and that any parsed frame is a one-round-trip fixed point: Append produces
// Len() bytes that reparse to a frame with an identical encoding. Seeds cover
// every frame type including the multi-path extensions (ACK_MP with and
// without the QoE signal, PATH_STATUS).
func FuzzParseFrame(f *testing.F) {
	seeds := []Frame{
		&PaddingFrame{Count: 5},
		&PingFrame{},
		&AckFrame{Ranges: []AckRange{{Smallest: 8, Largest: 10}, {Smallest: 1, Largest: 3}},
			AckDelay: 25 * time.Microsecond},
		&AckMPFrame{PathID: 3, Ranges: []AckRange{{Smallest: 0, Largest: 7}}, AckDelay: time.Millisecond},
		&AckMPFrame{PathID: 1, Ranges: []AckRange{{Smallest: 2, Largest: 9}}, HasQoE: true,
			QoE: QoESignal{CachedBytes: 1 << 20, CachedFrames: 120, BitrateBps: 2_000_000, FramerateFPS: 30}},
		&PathStatusFrame{PathID: 2, StatusSeq: 5, Status: PathStandby},
		&StreamFrame{StreamID: 4, Offset: 1234, Data: []byte("hello"), Fin: true},
		&CryptoFrame{Offset: 10, Data: []byte{1, 2, 3}},
		&ResetStreamFrame{StreamID: 12, ErrorCode: 5, FinalSize: 100000},
		&StopSendingFrame{StreamID: 16, ErrorCode: 2},
		&MaxDataFrame{MaxData: 1 << 24},
		&MaxStreamDataFrame{StreamID: 8, MaxStreamData: 1 << 22},
		&NewConnectionIDFrame{Sequence: 2, RetirePrior: 1,
			ConnectionID: ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}, ResetToken: [16]byte{9, 9, 9}},
		&PathChallengeFrame{Data: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}},
		&PathResponseFrame{Data: [8]byte{8, 7, 6, 5, 4, 3, 2, 1}},
		&ConnectionCloseFrame{ErrorCode: 0x0a, Reason: "bye"},
		&HandshakeDoneFrame{},
		&FECWindowFrame{WindowID: 3, StreamID: 4, BaseOffset: 8192, DataLen: 4096,
			SymbolSize: 1024, Scheme: FECSchemeRS, Repairs: 2},
		&FECRepairFrame{WindowID: 3, Index: 1, Data: []byte("repair-symbol")},
		&FECRecoveredFrame{StreamID: 4, Offset: 9216, Length: 1024},
	}
	for _, fr := range seeds {
		f.Add(fr.Append(nil))
	}
	f.Add([]byte{0x40, 0x00, 0x00}) // non-minimal PADDING type (desync bait)
	for _, b := range retiredFrameSeeds {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := ParseFrame(b)
		if typ, _, terr := ParseVarint(b); terr == nil && retiredFrameTypes[typ] && err == nil {
			t.Fatalf("retired frame type 0x%x parsed as %s", typ, fr)
		}
		if err != nil {
			return
		}
		if n < 1 || n > len(b) {
			t.Fatalf("%s: consumed %d of %d bytes", fr, n, len(b))
		}
		enc := fr.Append(nil)
		if fr.Len() != len(enc) {
			t.Fatalf("%s: Len()=%d but encoded %d bytes", fr, fr.Len(), len(enc))
		}
		fr2, n2, err := ParseFrame(enc)
		if err != nil {
			t.Fatalf("%s: re-encoded frame rejected: %v", fr, err)
		}
		if n2 != len(enc) {
			t.Fatalf("%s: reparse consumed %d of %d bytes", fr, n2, len(enc))
		}
		if enc2 := fr2.Append(nil); !bytes.Equal(enc, enc2) {
			t.Fatalf("%s: encoding not a fixed point:\n first %x\n again %x", fr, enc, enc2)
		}
		_ = fr.String() // must not panic either
	})
}

// retiredFrameTypes are frame types this stack no longer sends or decodes:
// the standalone QOE_CONTROL_SIGNALS (QoE rides every ACK_MP), DATA_BLOCKED,
// STREAM_DATA_BLOCKED and RETIRE_CONNECTION_ID. A peer that sends one gets
// FRAME_ENCODING_ERROR, so ParseFrame must reject each of them.
var retiredFrameTypes = map[uint64]bool{0xbaba10: true, 0x14: true, 0x15: true, 0x19: true}

// retiredFrameSeeds are the retired types in their old encodings.
var retiredFrameSeeds = [][]byte{
	{0x80, 0xba, 0xba, 0x10, 0x09, 0x53, 0x88, 0x0a, 0x43, 0xe8, 0x18},
	{0x14, 0x43, 0xe7},
	{0x15, 0x04, 0x43, 0x09},
	{0x19, 0x07},
}

// FuzzParseTransportParams checks the handshake's parameter parser — the
// first peer-controlled input a connection decodes, and where the
// enable_multipath / enable_fec exchange is read: it never panics, and a
// block it accepts re-encodes to one that parses to the same parameters.
// The input is cut to its own length and capacity, so a value sliced past
// the end of the block panics instead of reading spare capacity. Seeds,
// including the rejection boundaries, are the committed corpus that go run
// ./internal/wire/testdata writes.
func FuzzParseTransportParams(f *testing.F) {
	f.Add(DefaultTransportParams().Append(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data)
		p, err := ParseTransportParams(data[:n:n])
		if err != nil {
			return
		}
		enc := p.Append(nil)
		p2, err := ParseTransportParams(enc)
		if err != nil {
			t.Fatalf("re-encoded parameters rejected: %v\n%x", err, enc)
		}
		if p2 != p {
			t.Fatalf("round trip:\n first %+v\n again %+v", p, p2)
		}
	})
}

// FuzzParseFECFrame targets the FEC extension frames specifically: any
// input that parses as FEC_WINDOW, FEC_REPAIR or FEC_RECOVERED must satisfy
// the invariants the transport's decoder assumes — it sizes window buffers
// and walks symbol ranges straight from these fields, so the wire layer is
// the only line of defense against a hostile peer inflating allocations or
// overflowing offsets. Seeds cover the boundary shapes: minimum and maximum
// symbol counts, the short tail symbol, near-overflow offsets.
func FuzzParseFECFrame(f *testing.F) {
	seeds := []Frame{
		&FECWindowFrame{WindowID: 0, StreamID: 0, BaseOffset: 0, DataLen: 1,
			SymbolSize: 1, Scheme: FECSchemeXOR, Repairs: 1},
		&FECWindowFrame{WindowID: 1, StreamID: 4, BaseOffset: 1 << 40,
			DataLen: MaxFECSourceSymbols * MaxFECSymbolSize, SymbolSize: MaxFECSymbolSize,
			Scheme: FECSchemeRS, Repairs: MaxFECRepairSymbols},
		&FECWindowFrame{WindowID: 2, StreamID: 8, BaseOffset: 4096, DataLen: 1025,
			SymbolSize: 1024, Scheme: FECSchemeRS, Repairs: 2}, // short tail symbol
		&FECRepairFrame{WindowID: 1, Index: 0, Data: []byte{0xff}},
		&FECRepairFrame{WindowID: 2, Index: MaxFECRepairSymbols - 1,
			Data: bytes.Repeat([]byte{0xab}, MaxFECSymbolSize)},
		&FECRecoveredFrame{StreamID: 4, Offset: 0, Length: 1},
		&FECRecoveredFrame{StreamID: 8, Offset: 1<<62 - 2, Length: 1},
	}
	for _, fr := range seeds {
		f.Add(fr.Append(nil))
	}
	// Malformed shapes that must be rejected, kept as seeds so mutation
	// starts from the interesting rejection boundaries.
	f.Add((&FECWindowFrame{WindowID: 1, StreamID: 1, DataLen: 1, SymbolSize: 1,
		Scheme: FECSchemeXOR, Repairs: 2}).Append(nil)) // xor with 2 repairs
	f.Add((&FECRecoveredFrame{StreamID: 1, Offset: 1<<62 - 1, Length: 1 << 61}).Append(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := ParseFrame(b)
		if err != nil {
			return
		}
		if n < 1 || n > len(b) {
			t.Fatalf("%s: consumed %d of %d bytes", fr, n, len(b))
		}
		switch fr := fr.(type) {
		case *FECWindowFrame:
			if fr.SymbolSize == 0 || fr.SymbolSize > MaxFECSymbolSize {
				t.Fatalf("window symbol size %d escaped validation", fr.SymbolSize)
			}
			if fr.DataLen == 0 || fr.DataLen > MaxFECSourceSymbols*fr.SymbolSize {
				t.Fatalf("window data length %d escaped validation", fr.DataLen)
			}
			if k := fr.SourceSymbols(); k < 1 || k > MaxFECSourceSymbols {
				t.Fatalf("SourceSymbols() = %d out of range", k)
			}
			if fr.BaseOffset+fr.DataLen < fr.BaseOffset {
				t.Fatal("window range overflow escaped validation")
			}
			if fr.Scheme > FECSchemeRS {
				t.Fatalf("unknown scheme %d escaped validation", fr.Scheme)
			}
			if fr.Repairs == 0 || fr.Repairs > MaxFECRepairSymbols {
				t.Fatalf("repair count %d escaped validation", fr.Repairs)
			}
			if fr.Scheme == FECSchemeXOR && fr.Repairs != 1 {
				t.Fatal("xor window with multiple repairs escaped validation")
			}
		case *FECRepairFrame:
			if len(fr.Data) == 0 || len(fr.Data) > MaxFECSymbolSize {
				t.Fatalf("repair payload %d escaped validation", len(fr.Data))
			}
			if fr.Index >= MaxFECRepairSymbols {
				t.Fatalf("repair index %d escaped validation", fr.Index)
			}
		case *FECRecoveredFrame:
			if fr.Length == 0 {
				t.Fatal("empty recovered range escaped validation")
			}
			if fr.Offset+fr.Length < fr.Offset {
				t.Fatal("recovered range overflow escaped validation")
			}
		default:
			return // not an FEC frame: FuzzParseFrame owns the generic check
		}
		enc := fr.Append(nil)
		if fr.Len() != len(enc) {
			t.Fatalf("%s: Len()=%d but encoded %d bytes", fr, fr.Len(), len(enc))
		}
		fr2, n2, err := ParseFrame(enc)
		if err != nil || n2 != len(enc) {
			t.Fatalf("%s: re-encoded frame rejected: n=%d err=%v", fr, n2, err)
		}
		if enc2 := fr2.Append(nil); !bytes.Equal(enc, enc2) {
			t.Fatalf("%s: encoding not a fixed point:\n first %x\n again %x", fr, enc, enc2)
		}
		_ = fr.String()
	})
}
