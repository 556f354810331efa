package transport

import (
	"fmt"

	"repro/internal/crypto"
	"repro/internal/wire"
)

// Packet assembly and protection. Sealing applies AEAD with the per-path
// nonce and then QUIC header protection; opening reverses both. The sample
// for header protection starts 4 bytes after the packet number offset, as
// in RFC 9001 §5.4.2, so the packet number length can be recovered before
// the number itself is read.

const headerSampleLen = 16

// sealShortInto assembles a protected 1-RTT packet into buf's storage,
// appending from buf's length: short header, frames serialized in place,
// PADDING up to the header-protection sample minimum, and an in-place AEAD
// seal (the 16-byte tag is reserved up front so sealing cannot reallocate
// away from buf). The returned packet aliases buf when capacity suffices;
// callers reuse a per-connection scratch and must treat the previous packet
// as invalid once the next one is assembled.
func sealShortInto(buf []byte, sealer *crypto.Sealer, dcid wire.ConnectionID, pathID uint32,
	pn uint64, largestAcked int64, frames []wire.Frame) []byte {
	pnLen := wire.PacketNumberLen(pn, largestAcked)
	buf = wire.AppendShort(buf, dcid, pn, pnLen)
	hdrLen := len(buf)
	buf = wire.AppendAll(buf, frames)
	// Header protection needs ciphertext from pnOffset+4 for 16 bytes:
	// payload+tag must cover (4-pnLen)+16; the tag provides 16, so pad the
	// payload to at least 4-pnLen bytes.
	for len(buf)-hdrLen < 4-pnLen {
		buf = append(buf, 0) // PADDING frame
	}
	// Grows only until the caller's reusable buffer reaches its steady-state size.
	if need := len(buf) + crypto.Overhead; cap(buf) < need {
		grown := make([]byte, len(buf), need)
		copy(grown, buf)
		buf = grown
	}
	sealed := sealer.Seal(buf[hdrLen:hdrLen], buf[:hdrLen], buf[hdrLen:], pathID, pn)
	pkt := buf[:hdrLen+len(sealed)]
	pnOffset := 1 + len(dcid)
	sample := pkt[pnOffset+4 : pnOffset+4+headerSampleLen]
	sealer.ProtectHeader(&pkt[0], pkt[pnOffset:pnOffset+pnLen], sample)
	return pkt
}

// sealShort builds a protected 1-RTT packet from a pre-serialized payload,
// allocating the result. Cold paths (close resends) and tests use it; the
// send path assembles into connection scratch via sealShortInto.
func sealShort(sealer *crypto.Sealer, dcid wire.ConnectionID, pathID uint32,
	pn uint64, largestAcked int64, payload []byte) []byte {
	pnLen := wire.PacketNumberLen(pn, largestAcked)
	for len(payload) < 4-pnLen {
		payload = append(payload, 0) // PADDING frame
	}
	hdr := wire.AppendShort(nil, dcid, pn, pnLen)
	pnOffset := 1 + len(dcid)
	pkt := sealer.Seal(hdr, hdr, payload, pathID, pn)
	sample := pkt[pnOffset+4 : pnOffset+4+headerSampleLen]
	sealer.ProtectHeader(&pkt[0], pkt[pnOffset:pnOffset+pnLen], sample)
	return pkt
}

// openShort unprotects and decrypts a 1-RTT packet into scratch (the
// caller's reusable buffer; pass nil to allocate). The caller resolves the
// DCID to a path (pathID for the nonce, largestPN for number recovery)
// before calling. It returns the packet number, the plaintext payload
// (aliasing the returned buffer), and the possibly-grown buffer to retain
// for the next call. data is never modified, even on failure.
func openShort(sealer *crypto.Sealer, scratch, data []byte, cidLen int,
	pathID uint32, largestPN int64) (uint64, []byte, []byte, error) {
	pnOffset := 1 + cidLen
	if len(data) < pnOffset+4+headerSampleLen {
		return 0, nil, scratch, wire.ErrTruncated
	}
	// Work on a copy so the caller's datagram is untouched on failure.
	pkt := append(scratch[:0], data...)
	sample := pkt[pnOffset+4 : pnOffset+4+headerSampleLen]
	// Unmask the first byte to learn pnLen, then the pn bytes.
	mask := sealer.HeaderMask(sample)
	pkt[0] ^= mask[0] & 0x1f
	pnLen := int(pkt[0]&0x03) + 1
	for i := 0; i < pnLen; i++ {
		pkt[pnOffset+i] ^= mask[1+i]
	}
	var trunc uint64
	for i := 0; i < pnLen; i++ {
		trunc = trunc<<8 | uint64(pkt[pnOffset+i])
	}
	pn := wire.DecodePacketNumber(trunc, pnLen, largestPN)
	hdrLen := pnOffset + pnLen
	// In-place decrypt: the plaintext overwrites the ciphertext region.
	payload, err := sealer.Open(pkt[hdrLen:hdrLen], pkt[:hdrLen], pkt[hdrLen:], pathID, pn)
	if err != nil {
		return 0, nil, pkt, err
	}
	return pn, payload, pkt, nil
}

// sealLong builds a protected Initial packet.
func sealLong(sealer *crypto.Sealer, dcid, scid wire.ConnectionID,
	pn uint64, largestAcked int64, payload []byte) []byte {
	pnLen := wire.PacketNumberLen(pn, largestAcked)
	for len(payload) < 4-pnLen {
		payload = append(payload, 0)
	}
	length := pnLen + len(payload) + crypto.Overhead
	hdr := wire.AppendLong(nil, dcid, scid, pn, pnLen, length)
	pnOffset := len(hdr) - pnLen
	pkt := sealer.Seal(hdr, hdr, payload, 0, pn)
	sample := pkt[pnOffset+4 : pnOffset+4+headerSampleLen]
	sealer.ProtectHeader(&pkt[0], pkt[pnOffset:pnOffset+pnLen], sample)
	return pkt
}

// longPNOffset computes the packet number offset of a long-header packet
// without needing the (protected) pn length bits. It also returns the end
// offset of the packet.
func longPNOffset(data []byte) (pnOffset, end int, err error) {
	if len(data) < 7 {
		return 0, 0, wire.ErrTruncated
	}
	pos := 5
	dcidLen := int(data[pos])
	pos += 1 + dcidLen
	if pos >= len(data) {
		return 0, 0, wire.ErrTruncated
	}
	scidLen := int(data[pos])
	pos += 1 + scidLen
	if pos >= len(data) {
		return 0, 0, wire.ErrTruncated
	}
	length, n, err := wire.ParseVarint(data[pos:])
	if err != nil {
		return 0, 0, err
	}
	pos += n
	end = pos + int(length)
	if end > len(data) {
		return 0, 0, wire.ErrTruncated
	}
	return pos, end, nil
}

// openLong unprotects and decrypts an Initial packet, returning the header,
// payload, and total packet length consumed (for coalesced datagrams).
func openLong(sealer *crypto.Sealer, data []byte, largestPN int64) (wire.Header, []byte, int, error) {
	pnOffset, end, err := longPNOffset(data)
	if err != nil {
		return wire.Header{}, nil, 0, err
	}
	if len(data) < pnOffset+4+headerSampleLen {
		return wire.Header{}, nil, 0, wire.ErrTruncated
	}
	pkt := append([]byte(nil), data[:end]...)
	sample := pkt[pnOffset+4 : pnOffset+4+headerSampleLen]
	mask := sealer.HeaderMask(sample)
	pkt[0] ^= mask[0] & 0x0f
	pnLen := int(pkt[0]&0x03) + 1
	for i := 0; i < pnLen; i++ {
		pkt[pnOffset+i] ^= mask[1+i]
	}
	hdr, hdrLen, _, err := wire.ParseLong(pkt, largestPN)
	if err != nil {
		return wire.Header{}, nil, 0, err
	}
	if hdr.Version != wire.Version {
		return wire.Header{}, nil, 0, fmt.Errorf("transport: unsupported version 0x%x", hdr.Version)
	}
	payload, err := sealer.Open(nil, pkt[:hdrLen], pkt[hdrLen:], 0, hdr.PacketNumber)
	if err != nil {
		return wire.Header{}, nil, 0, err
	}
	return hdr, payload, end, nil
}
