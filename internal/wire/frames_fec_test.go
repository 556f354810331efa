package wire

import (
	"bytes"
	"testing"
)

// TestFECFrameBounds refuses one frame per bound of the FEC parsers. The
// transport sizes its decoder from these fields as parsed — Repairs is the
// length of a make in handleFECWindow, SymbolSize and SourceSymbols() size
// the solve — so each bound is the only thing between a peer's varint and
// an allocation. The neighbours just inside each bound must parse. (The two
// range-overflow checks have no row: a varint tops out at 2^62-1, so no
// encodable offset and length sum past 2^64.)
func TestFECFrameBounds(t *testing.T) {
	win := func(edit func(*FECWindowFrame)) Frame {
		f := &FECWindowFrame{WindowID: 1, StreamID: 4, BaseOffset: 4096, DataLen: 2048,
			SymbolSize: 1024, Scheme: FECSchemeRS, Repairs: 2}
		edit(f)
		return f
	}
	symbol := func(n int) []byte { return bytes.Repeat([]byte{0xab}, n) }
	cases := []struct {
		name string
		f    Frame
		ok   bool
	}{
		{"window as sent", win(func(f *FECWindowFrame) {}), true},
		{"symbol size 0", win(func(f *FECWindowFrame) { f.SymbolSize = 0 }), false},
		{"symbol size at the maximum", win(func(f *FECWindowFrame) { f.SymbolSize = MaxFECSymbolSize }), true},
		{"symbol size beyond the maximum", win(func(f *FECWindowFrame) { f.SymbolSize = MaxFECSymbolSize + 1 }), false},
		{"data length 0", win(func(f *FECWindowFrame) { f.DataLen = 0 }), false},
		{"data length of the most symbols", win(func(f *FECWindowFrame) { f.DataLen = MaxFECSourceSymbols * f.SymbolSize }), true},
		{"data length of one byte more", win(func(f *FECWindowFrame) { f.DataLen = MaxFECSourceSymbols*f.SymbolSize + 1 }), false},
		{"unknown scheme", win(func(f *FECWindowFrame) { f.Scheme = FECSchemeRS + 1 }), false},
		{"repairs 0", win(func(f *FECWindowFrame) { f.Repairs = 0 }), false},
		{"repairs at the maximum", win(func(f *FECWindowFrame) { f.Repairs = MaxFECRepairSymbols }), true},
		{"repairs beyond the maximum", win(func(f *FECWindowFrame) { f.Repairs = MaxFECRepairSymbols + 1 }), false},
		{"xor with one repair", win(func(f *FECWindowFrame) { f.Scheme, f.Repairs = FECSchemeXOR, 1 }), true},
		{"xor with two repairs", win(func(f *FECWindowFrame) { f.Scheme, f.Repairs = FECSchemeXOR, 2 }), false},

		{"repair symbol, last index", &FECRepairFrame{WindowID: 1, Index: MaxFECRepairSymbols - 1, Data: symbol(8)}, true},
		{"repair symbol, index beyond the maximum", &FECRepairFrame{WindowID: 1, Index: MaxFECRepairSymbols, Data: symbol(8)}, false},
		{"repair symbol, empty payload", &FECRepairFrame{WindowID: 1, Index: 0}, false},
		{"repair symbol, payload at the maximum", &FECRepairFrame{WindowID: 1, Index: 0, Data: symbol(MaxFECSymbolSize)}, true},
		{"repair symbol, payload beyond the maximum", &FECRepairFrame{WindowID: 1, Index: 0, Data: symbol(MaxFECSymbolSize + 1)}, false},

		{"recovered range", &FECRecoveredFrame{StreamID: 4, Offset: 4096, Length: 1}, true},
		{"recovered range, empty", &FECRecoveredFrame{StreamID: 4, Offset: 4096, Length: 0}, false},
	}
	for _, tc := range cases {
		b := tc.f.Append(nil)
		got, n, err := ParseFrame(b)
		switch {
		case tc.ok && (err != nil || n != len(b)):
			t.Errorf("%s: refused (%v, %d of %d bytes)", tc.name, err, n, len(b))
		case !tc.ok && err == nil:
			t.Errorf("%s: parsed as %s", tc.name, got)
		}
	}
	// A repair symbol cut short is truncated, not a shorter symbol.
	full := (&FECRepairFrame{WindowID: 1, Index: 0, Data: symbol(8)}).Append(nil)
	if _, _, err := ParseFrame(full[:len(full)-1]); err != ErrTruncated {
		t.Errorf("repair symbol one byte short: %v, want ErrTruncated", err)
	}
}
