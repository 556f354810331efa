package crypto

import "testing"

// TestAllocGateSealOpen gates the zero-allocation property of warm packet
// protection (scripts/check.sh runs every TestAllocGate*): Seal and Open
// with in-place destinations and HeaderMask must not allocate — the Sealer's
// nonce and header-protection scratch exist precisely for this.
func TestAllocGateSealOpen(t *testing.T) {
	s, err := NewSealer([]byte("alloc-gate-secret"), "gate")
	if err != nil {
		t.Fatal(err)
	}
	header := []byte{0x40, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 42}
	buf := make([]byte, 1200, 1200+Overhead)
	if avg := testing.AllocsPerRun(100, func() {
		out := s.Seal(buf[:0], header, buf, 7, 42)
		if _, err := s.Open(out[:0], header, out, 7, 42); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("in-place Seal+Open allocates %.1f/op, want 0", avg)
	}
	sample := make([]byte, 16)
	if avg := testing.AllocsPerRun(100, func() {
		_ = s.HeaderMask(sample)
	}); avg != 0 {
		t.Fatalf("HeaderMask allocates %.1f/op, want 0", avg)
	}
}

// TestAllocGateNewSealer gates the key schedule: expand hashes on the stack,
// so a Sealer costs only its AES ciphers, its GCM and itself.
func TestAllocGateNewSealer(t *testing.T) {
	secret := make([]byte, 96) // a 1-RTT secret: PSK ‖ client random ‖ server random
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := NewSealer(secret, "client-initial"); err != nil {
			t.Fatal(err)
		}
	}); avg > 4 {
		t.Fatalf("NewSealer allocates %.1f/op, want at most 4", avg)
	}
}
