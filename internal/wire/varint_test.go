package wire

import (
	"errors"
	"testing"
	"time"
)

// varintBoundaries covers every encoding-length boundary from RFC 9000 §16:
// the largest value of each length and the smallest value of the next.
var varintBoundaries = []struct {
	v    uint64
	size int
}{
	{0, 1},
	{63, 1},        // maxVarint1
	{64, 2},        // first 2-byte value
	{16383, 2},     // maxVarint2
	{16384, 4},     // first 4-byte value
	{1<<30 - 1, 4}, // maxVarint4
	{1 << 30, 8},   // first 8-byte value
	{MaxVarint, 8}, // 2^62-1
	{MaxVarint - 1, 8},
}

func TestVarintBoundaryEncodings(t *testing.T) {
	for _, c := range varintBoundaries {
		b := AppendVarint(nil, c.v)
		if len(b) != c.size {
			t.Errorf("AppendVarint(%d): %d bytes, want %d", c.v, len(b), c.size)
		}
		if VarintLen(c.v) != c.size {
			t.Errorf("VarintLen(%d) = %d, want %d", c.v, VarintLen(c.v), c.size)
		}
		got, n, err := ParseVarint(b)
		if err != nil || got != c.v || n != c.size {
			t.Errorf("ParseVarint(%d): got %d n=%d err=%v", c.v, got, n, err)
		}
		got, n, err = ParseVarintMinimal(b)
		if err != nil || got != c.v || n != c.size {
			t.Errorf("ParseVarintMinimal(%d): got %d n=%d err=%v", c.v, got, n, err)
		}
	}
}

// appendVarintWithLen encodes v into exactly size bytes (possibly
// non-minimally) — test helper for building malformed inputs.
func appendVarintWithLen(b []byte, v uint64, size int) []byte {
	prefix := map[int]byte{1: 0x00, 2: 0x40, 4: 0x80, 8: 0xc0}[size]
	out := make([]byte, size)
	for i := size - 1; i >= 0; i-- {
		out[i] = byte(v)
		v >>= 8
	}
	out[0] |= prefix
	return append(b, out...)
}

func TestVarintNonMinimalRejected(t *testing.T) {
	for _, c := range varintBoundaries {
		for _, size := range []int{1, 2, 4, 8} {
			if size <= c.size {
				continue // can't encode shorter, equal is minimal
			}
			b := appendVarintWithLen(nil, c.v, size)
			// ParseVarint is lenient by design (interior length fields).
			got, n, err := ParseVarint(b)
			if err != nil || got != c.v || n != size {
				t.Errorf("ParseVarint(%d in %d bytes): got %d n=%d err=%v", c.v, size, got, n, err)
			}
			// ParseVarintMinimal must reject.
			if _, _, err := ParseVarintMinimal(b); !errors.Is(err, ErrNonMinimal) {
				t.Errorf("ParseVarintMinimal(%d in %d bytes): err=%v, want ErrNonMinimal", c.v, size, err)
			}
		}
	}
}

// TestFrameTypeNonMinimalRejected checks the RFC 9000 §12.4 requirement that
// frame types use the shortest encoding. A non-minimal PADDING type would
// desynchronize the byte-counting coalescer in ParseFrame.
func TestFrameTypeNonMinimalRejected(t *testing.T) {
	for _, typ := range []uint64{TypePadding, TypePing, TypeAck, TypeStreamBase, TypeAckMP} {
		minSize := VarintLen(typ)
		for _, size := range []int{2, 4, 8} {
			if size <= minSize {
				continue
			}
			b := appendVarintWithLen(nil, typ, size)
			b = append(b, make([]byte, 64)...) // plenty of body bytes
			if _, _, err := ParseFrame(b); !errors.Is(err, ErrNonMinimal) {
				t.Errorf("frame type 0x%x in %d bytes: err=%v, want ErrNonMinimal", typ, size, err)
			}
		}
	}
}

// TestAckDelayClamped checks that an attacker-supplied ACK delay near the
// varint maximum does not overflow time.Duration (which would re-encode as a
// negative microsecond count and panic in AppendVarint).
func TestAckDelayClamped(t *testing.T) {
	for _, delayUS := range []uint64{MaxVarint, 1 << 61, uint64(maxAckDelay / time.Microsecond)} {
		var b []byte
		b = AppendVarint(b, 9)       // largest
		b = AppendVarint(b, delayUS) // delay
		b = AppendVarint(b, 0)       // range count
		b = AppendVarint(b, 4)       // first range
		ranges, delay, _, err := new(Decoder).parseAckBody(b)
		if err != nil {
			t.Fatalf("delayUS=%d: %v", delayUS, err)
		}
		if delay < 0 || delay > maxAckDelay {
			t.Fatalf("delayUS=%d: delay %v outside [0, %v]", delayUS, delay, maxAckDelay)
		}
		// The clamped frame must re-encode without panicking.
		f := &AckFrame{Ranges: ranges, AckDelay: delay}
		enc := f.Append(nil)
		if len(enc) != f.Len() {
			t.Fatalf("re-encode length mismatch")
		}
	}
	// Small delays pass through exactly.
	var b []byte
	b = AppendVarint(b, 9)
	b = AppendVarint(b, 250)
	b = AppendVarint(b, 0)
	b = AppendVarint(b, 4)
	_, delay, _, err := new(Decoder).parseAckBody(b)
	if err != nil || delay != 250*time.Microsecond {
		t.Fatalf("delay=%v err=%v, want 250µs", delay, err)
	}
}
