package wire

import (
	"bytes"
	"encoding/hex"
)

// MaxCIDLen is the maximum connection ID length (RFC 9000).
const MaxCIDLen = 20

// ConnectionID is a QUIC connection ID. In XLINK, different paths are
// identified by the sequence number of the connection ID in use; the CID
// bytes themselves can also encode a server ID for QUIC-LB routing.
type ConnectionID []byte

// Equal reports whether two connection IDs have the same bytes.
func (c ConnectionID) Equal(o ConnectionID) bool { return bytes.Equal(c, o) }

// String returns the CID in hex.
func (c ConnectionID) String() string { return hex.EncodeToString(c) }

// Clone returns an independent copy.
func (c ConnectionID) Clone() ConnectionID {
	// Called only during CID issuance, once per path.
	out := make(ConnectionID, len(c))
	copy(out, c)
	return out
}
