package wire

// Frame type codes. Standard frames use the RFC 9000 values; the
// multi-path extension frames use the experimental greased code points from
// the draft-liu-multipath-quic lineage.
const (
	TypePadding         uint64 = 0x00
	TypePing            uint64 = 0x01
	TypeAck             uint64 = 0x02
	TypeResetStream     uint64 = 0x04
	TypeStopSending     uint64 = 0x05
	TypeCrypto          uint64 = 0x06
	TypeStreamBase      uint64 = 0x08 // 0x08..0x0f with OFF/LEN/FIN bits
	TypeMaxData         uint64 = 0x10
	TypeMaxStreamData   uint64 = 0x11
	TypeNewConnectionID uint64 = 0x18
	TypePathChallenge   uint64 = 0x1a
	TypePathResponse    uint64 = 0x1b
	TypeConnectionClose uint64 = 0x1c
	TypeHandshakeDone   uint64 = 0x1e

	// Multi-path extension frames.
	TypeAckMP      uint64 = 0xbaba00
	TypePathStatus uint64 = 0xbaba05

	// Forward-erasure-correction extension frames (DESIGN.md §13).
	TypeFECWindow    uint64 = 0xbaba20
	TypeFECRepair    uint64 = 0xbaba21
	TypeFECRecovered uint64 = 0xbaba22
)

// Frame is one QUIC frame. Append serializes the frame, appending to b.
type Frame interface {
	// Append serializes the frame onto b and returns the extended slice.
	Append(b []byte) []byte
	// Len returns the serialized size in bytes.
	Len() int
	// String names the frame for logs.
	String() string
}

// AckEliciting reports whether a frame requires acknowledgement
// (everything except ACK, ACK_MP, PADDING, CONNECTION_CLOSE).
func AckEliciting(f Frame) bool {
	switch f.(type) {
	case *AckFrame, *AckMPFrame, *PaddingFrame, *ConnectionCloseFrame:
		return false
	default:
		return true
	}
}

// ParseFrame decodes the frame at the front of b, returning it and the
// bytes consumed. The frame is the caller's to keep (a STREAM frame's Data
// still aliases b); the receive path, which does not keep frames, parses with
// a Decoder instead.
func ParseFrame(b []byte) (Frame, int, error) {
	if run := paddingRun(b); run > 0 {
		// Coalesce a run of padding bytes into one frame.
		return &PaddingFrame{Count: run}, run, nil
	}
	var d Decoder
	return d.parseFrame(b)
}

// ParseAll decodes every frame in a packet payload.
func ParseAll(b []byte) ([]Frame, error) {
	return AppendFrames(nil, b)
}

// AppendFrames decodes every frame in a packet payload, appending to frames,
// as Decoder.AppendFrames does, into storage of their own: the frames are the
// caller's to keep.
func AppendFrames(frames []Frame, b []byte) ([]Frame, error) {
	var d Decoder
	return d.AppendFrames(frames, b)
}

// AppendAll serializes frames in order.
func AppendAll(b []byte, frames []Frame) []byte {
	for _, f := range frames {
		b = f.Append(b)
	}
	return b
}
