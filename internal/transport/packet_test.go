package transport

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/crypto"
	"repro/internal/wire"
)

func testSealer(t *testing.T) *crypto.Sealer {
	t.Helper()
	s, err := crypto.NewSealer([]byte("packet-test-secret-0123456789abc"), "dir")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sealShort builds a protected 1-RTT packet from a pre-serialized payload,
// allocating the result, for tests that craft packets by hand. The transport
// itself seals 1-RTT packets only through sealShortInto, in Conn.emit.
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

func TestSealOpenShortRoundTrip(t *testing.T) {
	sealer := testSealer(t)
	dcid := wire.ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}
	payload := []byte("some frames here")
	pkt := sealShort(sealer, dcid, 3, 42, 40, payload)
	sealed := append([]byte(nil), pkt...)
	pn, got, _, err := openShort(sealer, nil, pkt, len(dcid), 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	if pn != 42 {
		t.Fatalf("pn = %d", pn)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
	// The datagram is the I/O layer's, borrowed for the call: opening it
	// works on a copy, so a link may still deliver the same bytes again.
	if !bytes.Equal(pkt, sealed) {
		t.Fatal("openShort decrypted the caller's datagram in place")
	}
}

func TestOpenShortRejectsWrongPath(t *testing.T) {
	sealer := testSealer(t)
	dcid := wire.ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}
	pkt := sealShort(sealer, dcid, 3, 42, 40, []byte("x"))
	if _, _, _, err := openShort(sealer, nil, pkt, len(dcid), 4, 41); err == nil {
		t.Fatal("wrong path nonce must fail to decrypt")
	}
}

func TestOpenShortRejectsCorruption(t *testing.T) {
	sealer := testSealer(t)
	dcid := wire.ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}
	pkt := sealShort(sealer, dcid, 0, 7, -1, []byte("payload"))
	for i := 0; i < len(pkt); i++ {
		bad := append([]byte(nil), pkt...)
		bad[i] ^= 0xff
		before := append([]byte(nil), bad...)
		_, _, _, err := openShort(sealer, nil, bad, len(dcid), 0, -1)
		if !bytes.Equal(bad, before) {
			t.Fatalf("corruption at byte %d: the failed open modified the datagram", i)
		}
		if err == nil {
			// Flipping a bit in the unprotected DCID changes where the
			// receiver looks up the path; the caller resolves that before
			// openShort, so only header/ciphertext bits must fail here.
			if i >= 1 && i <= 8 {
				continue
			}
			t.Fatalf("corruption at byte %d not detected", i)
		}
	}
}

func TestOpenShortTruncated(t *testing.T) {
	sealer := testSealer(t)
	dcid := wire.ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}
	pkt := sealShort(sealer, dcid, 0, 7, -1, []byte("payload"))
	for i := 0; i < len(pkt); i++ {
		if _, _, _, err := openShort(sealer, nil, pkt[:i], len(dcid), 0, -1); err == nil {
			t.Fatalf("truncation at %d not detected", i)
		}
	}
}

func TestSealOpenLongRoundTrip(t *testing.T) {
	sealer := testSealer(t)
	dcid := wire.ConnectionID{9, 9, 9, 9}
	scid := wire.ConnectionID{8, 8, 8, 8, 8, 8}
	payload := []byte("crypto frame contents")
	pkt := sealLong(sealer, dcid, scid, 0, -1, payload)
	hdr, got, consumed, err := openLong(sealer, pkt, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !hdr.DCID.Equal(dcid) || !hdr.SCID.Equal(scid) || hdr.PacketNumber != 0 {
		t.Fatalf("header %+v", hdr)
	}
	if consumed != len(pkt) {
		t.Fatalf("consumed %d of %d", consumed, len(pkt))
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestSealShortTinyPayloadPadded(t *testing.T) {
	// Header protection needs 16 bytes of sample 4 bytes past the pn;
	// tiny payloads must be padded, never panic.
	sealer := testSealer(t)
	dcid := wire.ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}
	for size := 0; size < 8; size++ {
		pkt := sealShort(sealer, dcid, 1, uint64(size), -1, make([]byte, size))
		if _, _, _, err := openShort(sealer, nil, pkt, len(dcid), 1, -1); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

func TestPropertyPacketRoundTrip(t *testing.T) {
	sealer := testSealer(t)
	dcid := wire.ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}
	f := func(pathID uint32, pnDelta uint16, payload []byte) bool {
		largest := int64(1000)
		pn := uint64(largest) + 1 + uint64(pnDelta%64)
		pkt := sealShort(sealer, dcid, pathID, pn, largest, payload)
		gotPN, got, _, err := openShort(sealer, nil, pkt, len(dcid), pathID, largest)
		if err != nil || gotPN != pn {
			return false
		}
		// Padding may extend tiny payloads with zero bytes.
		if len(got) < len(payload) {
			return false
		}
		return bytes.Equal(got[:len(payload)], payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzOpenShort feeds arbitrary datagrams to openShort, the one place the
// receive path parses a short header and removes its protection, under a
// fixed sealer. It must not panic, must leave the caller's bytes as they
// were, and a payload it returns must be the datagram's own ciphertext
// region opened in the returned buffer, past a 1- to 4-byte packet number
// and short of the tag, with a packet number near the expected one. The
// committed corpus (testdata/fuzz/FuzzOpenShort) holds
// packets sealed with each packet-number length and their damaged forms.
func FuzzOpenShort(f *testing.F) {
	sealer, err := crypto.NewSealer([]byte("packet-test-secret-0123456789abc"), "dir")
	if err != nil {
		f.Fatal(err)
	}
	const cidLen, pathID, largest = 8, 3, 1 << 20
	dcid := wire.ConnectionID{1, 2, 3, 4, 5, 6, 7, 8}
	f.Add(sealShort(sealer, dcid, pathID, largest+1, largest, []byte("frames")))
	f.Add([]byte{0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		before := bytes.Clone(data)
		pn, payload, buf, err := openShort(sealer, nil, data, cidLen, pathID, largest)
		if !bytes.Equal(data, before) {
			t.Fatal("openShort modified the caller's datagram")
		}
		if err != nil {
			return
		}
		hdrLen := len(data) - len(payload) - crypto.Overhead
		if hdrLen < 1+cidLen+1 || hdrLen > 1+cidLen+4 {
			t.Fatalf("a %d-byte payload leaves %d header bytes of a %d-byte datagram", len(payload), hdrLen, len(data))
		}
		if cap(payload) != cap(buf)-hdrLen || !bytes.Equal(payload, buf[hdrLen:hdrLen+len(payload)]) {
			t.Fatal("the payload is not the datagram's ciphertext region of the returned buffer")
		}
		// RFC 9000 §A.3: the number recovered lies within half the
		// truncated number's range of the one expected next.
		if half := uint64(1) << (8*(hdrLen-1-cidLen) - 1); pn+half < largest+1 || pn > largest+1+half {
			t.Fatalf("packet number %d from %d bytes, expected near %d", pn, hdrLen-1-cidLen, largest+1)
		}
	})
}
