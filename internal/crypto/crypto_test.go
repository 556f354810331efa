package crypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"testing"
	"testing/quick"
)

func newPair(t *testing.T) (*Sealer, *Sealer) {
	t.Helper()
	secret := []byte("0123456789abcdef0123456789abcdef")
	a, err := NewSealer(secret, "server")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSealer(secret, "server")
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestExpandIsHMACOfLabelAndCounter checks the key schedule against
// crypto/hmac: expand is HKDF-Expand's first block, HMAC-SHA-256(secret,
// label ‖ use ‖ 0x01), for secrets on both sides of the 64-byte key branch
// and for an info too long for expand's stack buffer.
func TestExpandIsHMACOfLabelAndCounter(t *testing.T) {
	long := string(bytes.Repeat([]byte("l"), 200))
	for n := 1; n <= 200; n++ {
		secret := make([]byte, n)
		for i := range secret {
			secret[i] = byte(i*7 + n)
		}
		for _, info := range [][2]string{{"client-initial", " key"}, {"server", " iv"}, {"", ""}, {long, " hp"}} {
			mac := hmac.New(sha256.New, secret)
			mac.Write([]byte(info[0] + info[1]))
			mac.Write([]byte{1})
			if got := expand(secret, info[0], info[1]); !bytes.Equal(got[:], mac.Sum(nil)) {
				t.Fatalf("%d-byte secret, info %.20q: expand differs from HMAC-SHA-256", n, info[0]+info[1])
			}
		}
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	tx, rx := newPair(t)
	header := []byte{0x40, 1, 2, 3}
	payload := []byte("video chunk data")
	ct := tx.Seal(nil, header, payload, 1, 42)
	if len(ct) != len(payload)+Overhead {
		t.Fatalf("ciphertext length %d, want %d", len(ct), len(payload)+Overhead)
	}
	pt, err := rx.Open(nil, header, ct, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, payload) {
		t.Fatal("plaintext mismatch")
	}
}

func TestOpenRejectsWrongPath(t *testing.T) {
	tx, rx := newPair(t)
	ct := tx.Seal(nil, []byte{1}, []byte("data"), 1, 42)
	if _, err := rx.Open(nil, []byte{1}, ct, 2, 42); err != ErrDecrypt {
		t.Fatal("wrong path must fail authentication (distinct nonce)")
	}
}

func TestOpenRejectsWrongPN(t *testing.T) {
	tx, rx := newPair(t)
	ct := tx.Seal(nil, []byte{1}, []byte("data"), 1, 42)
	if _, err := rx.Open(nil, []byte{1}, ct, 1, 43); err != ErrDecrypt {
		t.Fatal("wrong pn must fail")
	}
}

func TestOpenRejectsTamperedHeader(t *testing.T) {
	tx, rx := newPair(t)
	ct := tx.Seal(nil, []byte{1, 2}, []byte("data"), 0, 0)
	if _, err := rx.Open(nil, []byte{1, 3}, ct, 0, 0); err != ErrDecrypt {
		t.Fatal("tampered header must fail")
	}
}

func TestOpenRejectsTamperedCiphertext(t *testing.T) {
	tx, rx := newPair(t)
	ct := tx.Seal(nil, []byte{1}, []byte("data"), 0, 0)
	ct[0] ^= 0xff
	if _, err := rx.Open(nil, []byte{1}, ct, 0, 0); err != ErrDecrypt {
		t.Fatal("tampered ciphertext must fail")
	}
}

func TestDifferentLabelsDiverge(t *testing.T) {
	secret := []byte("shared-secret-material-32bytes!!")
	c, _ := NewSealer(secret, "client")
	s, _ := NewSealer(secret, "server")
	ct := c.Seal(nil, nil, []byte("x"), 0, 0)
	if _, err := s.Open(nil, nil, ct, 0, 0); err == nil {
		t.Fatal("client and server directions must use different keys")
	}
}

func TestNonceDistinctAcrossPathsSamePN(t *testing.T) {
	tx, _ := newPair(t)
	// Same pn on different paths must produce different ciphertexts
	// (nonce uniqueness is the whole point of the construction).
	a := tx.Seal(nil, nil, []byte("same"), 1, 7)
	b := tx.Seal(nil, nil, []byte("same"), 2, 7)
	if bytes.Equal(a, b) {
		t.Fatal("path must alter the nonce")
	}
}

func TestEmptySecretRejected(t *testing.T) {
	if _, err := NewSealer(nil, "x"); err == nil {
		t.Fatal("empty secret must be rejected")
	}
}

func TestHeaderProtectionRoundTrip(t *testing.T) {
	tx, rx := newPair(t)
	first := byte(0x41)
	pn := []byte{0x12, 0x34}
	sample := make([]byte, 16)
	for i := range sample {
		sample[i] = byte(i * 7)
	}
	f, p := first, append([]byte(nil), pn...)
	tx.ProtectHeader(&f, p, sample)
	if f == first && bytes.Equal(p, pn) {
		t.Fatal("protection should change header bytes")
	}
	rx.UnprotectHeader(&f, p, sample)
	if f != first || !bytes.Equal(p, pn) {
		t.Fatal("unprotect must invert protect")
	}
}

func TestHeaderProtectionPreservesLongHeaderBits(t *testing.T) {
	tx, _ := newPair(t)
	first := byte(0xc3) // long header
	sample := make([]byte, 16)
	f := first
	tx.ProtectHeader(&f, nil, sample)
	if f&0xf0 != first&0xf0 {
		t.Fatal("long header protection must only touch low 4 bits")
	}
}

func TestPropertySealOpen(t *testing.T) {
	tx, rx := newPair(t)
	f := func(header, payload []byte, pathID uint32, pn uint64) bool {
		pn &= (1 << 62) - 1
		ct := tx.Seal(nil, header, payload, pathID, pn)
		pt, err := rx.Open(nil, header, ct, pathID, pn)
		return err == nil && bytes.Equal(pt, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyNonceUnique(t *testing.T) {
	tx, _ := newPair(t)
	seen := map[[12]byte]bool{}
	f := func(pathID uint32, pn uint64) bool {
		pn &= (1 << 62) - 1
		n := tx.nonce(pathID, pn)
		key := [12]byte(n)
		if seen[key] {
			// Collisions only acceptable for identical inputs; quick
			// rarely repeats, so treat as failure.
			return false
		}
		seen[key] = true
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
