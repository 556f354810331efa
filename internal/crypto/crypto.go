// Package crypto implements XLINK packet protection. All paths of a
// connection share one AEAD key (Sec 6, "Packet protection"); uniqueness of
// the AEAD nonce across paths comes from the draft's path-and-packet-number
// construction: a 96-bit value of the 32-bit connection-ID sequence number,
// two zero bits, and the 62-bit packet number, left-padded to the IV size
// and XORed with the IV.
//
// Key material is derived from a session secret with HKDF-Expand (RFC 5869)
// over SHA-256, of which every key, IV and header-protection key needs only
// the first block. The
// TLS 1.3 handshake itself is out of scope for this reproduction — the
// mechanisms the paper evaluates live above it — so the session secret is
// established by the simplified CRYPTO-frame handshake in the transport
// package.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"errors"
	"fmt"
)

// Standard AEAD geometry for AES-128-GCM.
const (
	keyLen = 16
	ivLen  = 12
	// Overhead is the AEAD tag size added to every protected payload.
	Overhead = 16
)

// ErrDecrypt is returned when a packet fails authentication.
var ErrDecrypt = errors.New("crypto: packet authentication failed")

// expand returns the first block of HKDF-Expand (RFC 5869, §2.3) with
// SHA-256 and info = label ‖ use: HMAC-SHA-256(secret, label ‖ use ‖ 0x01).
// The HMAC is computed with sha256.Sum256 over stack buffers (RFC 2104: a
// key longer than the block is hashed first; every 1-RTT secret is, being a
// PSK and two randoms), so a key schedule allocates nothing.
func expand(secret []byte, label, use string) [sha256.Size]byte {
	var key [sha256.BlockSize]byte
	if len(secret) > sha256.BlockSize {
		sum := sha256.Sum256(secret)
		copy(key[:], sum[:])
	} else {
		copy(key[:], secret)
	}
	// The inner message is (key ⊕ ipad) ‖ info ‖ 0x01; an info longer than
	// the stack array still works, on a heap copy.
	var ibuf [2 * sha256.BlockSize]byte
	inner := ibuf[:sha256.BlockSize]
	for i, k := range key {
		inner[i] = k ^ 0x36
	}
	inner = append(append(append(inner, label...), use...), 1)
	var outer [sha256.BlockSize + sha256.Size]byte
	for i, k := range key {
		outer[i] = k ^ 0x5c
	}
	sum := sha256.Sum256(inner)
	copy(outer[sha256.BlockSize:], sum[:])
	return sha256.Sum256(outer[:])
}

// Sealer protects and unprotects packets for one connection. It is safe to
// share between paths: nonces are derived per (path, packet number). It is
// NOT safe for concurrent use — the nonce and header-protection scratch
// below are reused across calls so the hot path does not allocate; all
// simulated components run on one event loop.
type Sealer struct {
	aead cipher.AEAD
	iv   [ivLen]byte
	hp   cipher.Block // header protection cipher

	nbuf  [ivLen]byte // nonce scratch
	hpIn  [16]byte    // header protection sample block
	hpOut [16]byte    // header protection cipher output
}

// NewSealer derives a Sealer from a connection secret. Client and server
// derive the same keys from the same secret and direction label.
func NewSealer(secret []byte, label string) (*Sealer, error) {
	if len(secret) == 0 {
		return nil, errors.New("crypto: empty secret")
	}
	key := expand(secret, label, " key")
	iv := expand(secret, label, " iv")
	hpKey := expand(secret, label, " hp")
	block, err := aes.NewCipher(key[:keyLen])
	if err != nil {
		return nil, fmt.Errorf("crypto: aead key: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("crypto: gcm: %w", err)
	}
	hp, err := aes.NewCipher(hpKey[:keyLen])
	if err != nil {
		return nil, fmt.Errorf("crypto: hp key: %w", err)
	}
	s := &Sealer{aead: aead, hp: hp}
	copy(s.iv[:], iv[:ivLen])
	return s, nil
}

// nonce fills the Sealer's nonce scratch with the per-path AEAD nonce:
// 32-bit CID sequence number, two zero bits, 62-bit packet number,
// left-padded to the IV length, XOR IV. Writing into Sealer-owned scratch
// (instead of returning an array) keeps the value off the heap when it is
// passed through the cipher.AEAD interface.
func (s *Sealer) nonce(pathID uint32, pn uint64) []byte {
	n := &s.nbuf
	// 96-bit path-and-packet-number: 4 bytes path, 8 bytes (2 zero bits +
	// 62-bit pn) — pn must fit in 62 bits, which QUIC guarantees.
	n[0] = byte(pathID >> 24)
	n[1] = byte(pathID >> 16)
	n[2] = byte(pathID >> 8)
	n[3] = byte(pathID)
	for i := 0; i < 8; i++ {
		n[4+i] = byte(pn >> (8 * (7 - i)))
	}
	for i := range n {
		n[i] ^= s.iv[i]
	}
	return n[:]
}

// Seal encrypts payload for packet pn on path pathID, authenticating header
// as associated data. The ciphertext (payload + 16-byte tag) is appended to
// dst. Passing payload[:0] as dst encrypts in place.
func (s *Sealer) Seal(dst, header, payload []byte, pathID uint32, pn uint64) []byte {
	return s.aead.Seal(dst, s.nonce(pathID, pn), payload, header)
}

// Open decrypts ciphertext for packet pn on path pathID. It returns
// ErrDecrypt if authentication fails (wrong key, wrong path, tampering).
// Passing ciphertext[:0] as dst decrypts in place.
func (s *Sealer) Open(dst, header, ciphertext []byte, pathID uint32, pn uint64) ([]byte, error) {
	out, err := s.aead.Open(dst, s.nonce(pathID, pn), ciphertext, header)
	if err != nil {
		return nil, ErrDecrypt
	}
	return out, nil
}

// HeaderMask returns the 5-byte header protection mask for a ciphertext
// sample, per the QUIC header protection construction.
func (s *Sealer) HeaderMask(sample []byte) [5]byte {
	n := copy(s.hpIn[:], sample)
	for i := n; i < len(s.hpIn); i++ {
		s.hpIn[i] = 0
	}
	s.hp.Encrypt(s.hpOut[:], s.hpIn[:])
	var mask [5]byte
	copy(mask[:], s.hpOut[:5])
	return mask
}

// ProtectHeader applies header protection in place: the packet-number
// length bits of the first byte and the packet number bytes are masked
// using a sample of ciphertext. sample must be at least 16 bytes of
// ciphertext taken after the packet number field.
func (s *Sealer) ProtectHeader(first *byte, pnBytes []byte, sample []byte) {
	mask := s.HeaderMask(sample)
	if *first&0x80 != 0 {
		*first ^= mask[0] & 0x0f // long header: low 4 bits
	} else {
		*first ^= mask[0] & 0x1f // short header: low 5 bits
	}
	for i := range pnBytes {
		pnBytes[i] ^= mask[1+i]
	}
}
