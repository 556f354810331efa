package wire

import (
	"encoding/binary"
	"fmt"
)

// Version is the QUIC version this implementation speaks. It sits in the
// reserved-for-experimentation space so real stacks won't confuse it for
// RFC QUIC.
const Version uint32 = 0xff00c1a0

// Packet types. XLINK keeps QUIC's header formats unchanged (Sec 6) so
// middleboxes see standard QUIC: long headers for the handshake, short
// headers for 1-RTT data.
type PacketType int

// Packet type values.
const (
	// PacketInitial carries the handshake (long header).
	PacketInitial PacketType = iota
	// PacketOneRTT carries application data (short header).
	PacketOneRTT
)

// String returns the packet type name.
func (t PacketType) String() string {
	if t == PacketInitial {
		return "Initial"
	}
	return "1-RTT"
}

// Header is a parsed packet header. For long headers both CIDs are present;
// for short headers only the destination CID is on the wire.
type Header struct {
	Type    PacketType
	Version uint32
	DCID    ConnectionID
	SCID    ConnectionID
	// PacketNumber is the full, reconstructed packet number.
	PacketNumber uint64
	// PNLen is the encoded packet number length in bytes (1-4).
	PNLen int
}

// AppendLong serializes a long (Initial) header. The payload length field
// covers the packet number and payload+tag; the caller passes
// pnAndPayloadLen accordingly.
func AppendLong(b []byte, dcid, scid ConnectionID, pn uint64, pnLen, pnAndPayloadLen int) []byte {
	first := byte(0xc0) // long header, fixed bit, type=Initial(00)
	first |= byte(pnLen - 1)
	b = append(b, first)
	b = binary.BigEndian.AppendUint32(b, Version)
	b = append(b, byte(len(dcid)))
	b = append(b, dcid...)
	b = append(b, byte(len(scid)))
	b = append(b, scid...)
	b = AppendVarint(b, uint64(pnAndPayloadLen))
	return AppendPacketNumber(b, pn, pnLen)
}

// AppendShort serializes a short (1-RTT) header.
func AppendShort(b []byte, dcid ConnectionID, pn uint64, pnLen int) []byte {
	first := byte(0x40) // fixed bit
	first |= byte(pnLen - 1)
	b = append(b, first)
	b = append(b, dcid...)
	return AppendPacketNumber(b, pn, pnLen)
}

// IsLongHeader reports whether the first byte indicates a long header.
func IsLongHeader(first byte) bool { return first&0x80 != 0 }

// ParseLong parses a long header from b. largestPN is the largest packet
// number received so far in the Initial space (-1 if none). It returns the
// header, the header length in bytes, and the end offset of the packet
// (header length + length field contents).
func ParseLong(b []byte, largestPN int64) (Header, int, int, error) {
	var h Header
	if len(b) < 7 {
		return h, 0, 0, ErrTruncated
	}
	first := b[0]
	if first&0xc0 != 0xc0 {
		return h, 0, 0, fmt.Errorf("wire: not a long header packet")
	}
	h.Type = PacketInitial
	h.Version = binary.BigEndian.Uint32(b[1:5])
	pos := 5
	dcidLen := int(b[pos])
	pos++
	if dcidLen > MaxCIDLen || len(b) < pos+dcidLen+1 {
		return h, 0, 0, ErrTruncated
	}
	h.DCID = append(ConnectionID(nil), b[pos:pos+dcidLen]...)
	pos += dcidLen
	scidLen := int(b[pos])
	pos++
	if scidLen > MaxCIDLen || len(b) < pos+scidLen {
		return h, 0, 0, ErrTruncated
	}
	h.SCID = append(ConnectionID(nil), b[pos:pos+scidLen]...)
	pos += scidLen
	length, n, err := ParseVarint(b[pos:])
	if err != nil {
		return h, 0, 0, err
	}
	pos += n
	h.PNLen = int(first&0x03) + 1
	// The length field covers the packet number and payload; a value
	// smaller than the packet number length would make the packet end
	// before its header does.
	if length < uint64(h.PNLen) {
		return h, 0, 0, fmt.Errorf("wire: long header length %d shorter than packet number", length)
	}
	if len(b) < pos+h.PNLen {
		return h, 0, 0, ErrTruncated
	}
	var truncPN uint64
	for i := 0; i < h.PNLen; i++ {
		truncPN = truncPN<<8 | uint64(b[pos+i])
	}
	h.PacketNumber = DecodePacketNumber(truncPN, h.PNLen, largestPN)
	headerLen := pos + h.PNLen
	end := pos + int(length)
	if end > len(b) {
		return h, 0, 0, ErrTruncated
	}
	return h, headerLen, end, nil
}
