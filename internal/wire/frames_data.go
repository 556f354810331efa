package wire

import "fmt"

// PaddingFrame represents a run of PADDING bytes.
type PaddingFrame struct {
	// Count is the number of padding bytes (>= 1).
	Count int
}

// Append implements Frame.
func (f *PaddingFrame) Append(b []byte) []byte {
	for i := 0; i < f.Count; i++ {
		b = append(b, 0)
	}
	return b
}

// Len implements Frame.
func (f *PaddingFrame) Len() int { return f.Count }

// String implements Frame.
func (f *PaddingFrame) String() string { return fmt.Sprintf("PADDING(%d)", f.Count) }

// PingFrame elicits an acknowledgement.
type PingFrame struct{}

// sharedPing is the instance every PING parse returns; the frame is
// stateless, so sharing keeps ping-heavy receive batches allocation-free.
var sharedPing PingFrame

// Append implements Frame.
func (f *PingFrame) Append(b []byte) []byte { return append(b, byte(TypePing)) }

// Len implements Frame.
func (f *PingFrame) Len() int { return 1 }

// String implements Frame.
func (f *PingFrame) String() string { return "PING" }

// StreamFrame carries application data for one stream. The serialized type
// byte carries OFF/LEN/FIN bits as in RFC 9000; encoding always includes
// offset and length for simplicity and middlebox-identical layout. A parsed
// frame's Data aliases the packet it was parsed from (see parseStream).
type StreamFrame struct {
	StreamID uint64
	Offset   uint64
	Data     []byte
	Fin      bool
}

// Append implements Frame.
func (f *StreamFrame) Append(b []byte) []byte {
	typ := byte(TypeStreamBase) | 0x04 | 0x02 // OFF|LEN
	if f.Fin {
		typ |= 0x01
	}
	b = append(b, typ)
	b = AppendVarint(b, f.StreamID)
	b = AppendVarint(b, f.Offset)
	b = AppendVarint(b, uint64(len(f.Data)))
	return append(b, f.Data...)
}

// Len implements Frame.
func (f *StreamFrame) Len() int {
	return 1 + VarintLen(f.StreamID) + VarintLen(f.Offset) +
		VarintLen(uint64(len(f.Data))) + len(f.Data)
}

// String implements Frame.
func (f *StreamFrame) String() string {
	return fmt.Sprintf("STREAM(id=%d off=%d len=%d fin=%v)", f.StreamID, f.Offset, len(f.Data), f.Fin)
}

// parseStream decodes a STREAM frame into the zeroed f. The frame's Data
// aliases b — the one frame type that borrows from the packet instead of
// copying out of it — so it is valid only for as long as the caller keeps b
// unchanged.
func parseStream(f *StreamFrame, typ byte, b []byte) (int, error) {
	f.Fin = typ&0x01 != 0
	hasOff := typ&0x04 != 0
	hasLen := typ&0x02 != 0
	pos := 0
	v, n, err := ParseVarint(b[pos:])
	if err != nil {
		return 0, err
	}
	f.StreamID = v
	pos += n
	if hasOff {
		v, n, err = ParseVarint(b[pos:])
		if err != nil {
			return 0, err
		}
		f.Offset = v
		pos += n
	}
	dataLen := uint64(len(b) - pos)
	if hasLen {
		v, n, err = ParseVarint(b[pos:])
		if err != nil {
			return 0, err
		}
		dataLen = v
		pos += n
	}
	if uint64(len(b)-pos) < dataLen {
		return 0, ErrTruncated
	}
	if dataLen > 0 {
		// Not copied: the stream layer copies the payload into its own
		// buffers while the packet is still in hand.
		f.Data = b[pos : pos+int(dataLen) : pos+int(dataLen)]
	}
	pos += int(dataLen)
	return pos, nil
}

// CryptoFrame carries handshake data (the simplified transport-parameter
// exchange in this implementation).
type CryptoFrame struct {
	Offset uint64
	Data   []byte
}

// Append implements Frame.
func (f *CryptoFrame) Append(b []byte) []byte {
	b = append(b, byte(TypeCrypto))
	b = AppendVarint(b, f.Offset)
	b = AppendVarint(b, uint64(len(f.Data)))
	return append(b, f.Data...)
}

// Len implements Frame.
func (f *CryptoFrame) Len() int {
	return 1 + VarintLen(f.Offset) + VarintLen(uint64(len(f.Data))) + len(f.Data)
}

// String implements Frame.
func (f *CryptoFrame) String() string {
	return fmt.Sprintf("CRYPTO(off=%d len=%d)", f.Offset, len(f.Data))
}

func parseCrypto(b []byte) (Frame, int, error) {
	f := &CryptoFrame{}
	off, n, err := ParseVarint(b)
	if err != nil {
		return nil, 0, err
	}
	f.Offset = off
	pos := n
	length, n, err := ParseVarint(b[pos:])
	if err != nil {
		return nil, 0, err
	}
	pos += n
	if uint64(len(b)-pos) < length {
		return nil, 0, ErrTruncated
	}
	f.Data = append([]byte(nil), b[pos:pos+int(length)]...)
	return f, pos + int(length), nil
}
