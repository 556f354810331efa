package wire

import "fmt"

// Transport parameter IDs. enable_multipath is the negotiation knob from
// the multi-path draft: if both endpoints offer it during the handshake,
// multi-path operation is enabled; otherwise both fall back to single-path
// QUIC (Sec 6, "Multi-path initialization").
const (
	ParamMaxIdleTimeout       uint64 = 0x01
	ParamInitialMaxData       uint64 = 0x04
	ParamInitialMaxStreamData uint64 = 0x05
	ParamInitialMaxStreams    uint64 = 0x08
	ParamActiveCIDLimit       uint64 = 0x0e
	ParamEnableMultipath      uint64 = 0x0f739bbc1b666d05
	ParamEnableFEC            uint64 = 0x0f739bbc1b666d08
)

// TransportParams is the simplified transport parameter set exchanged in
// CRYPTO frames during the handshake.
type TransportParams struct {
	MaxIdleTimeoutMS  uint64
	InitialMaxData    uint64
	InitialMaxStrData uint64
	InitialMaxStreams uint64
	ActiveCIDLimit    uint64
	EnableMultipath   bool
	// EnableFEC negotiates the forward-erasure-correction lane
	// (DESIGN.md §13): like enable_multipath, both endpoints must offer
	// it or both fall back to the two classic recovery lanes.
	EnableFEC bool
}

// DefaultTransportParams returns production-like defaults: generous flow
// control (video workloads), 8 active CIDs (room for several paths).
func DefaultTransportParams() TransportParams {
	return TransportParams{
		MaxIdleTimeoutMS:  30000,
		InitialMaxData:    16 << 20,
		InitialMaxStrData: 8 << 20,
		InitialMaxStreams: 128,
		ActiveCIDLimit:    8,
	}
}

// Append serializes the parameters as (id, len, value) triples.
func (p TransportParams) Append(b []byte) []byte {
	appendInt := func(b []byte, id, v uint64) []byte {
		b = AppendVarint(b, id)
		b = AppendVarint(b, uint64(VarintLen(v)))
		return AppendVarint(b, v)
	}
	appendFlag := func(b []byte, id uint64) []byte {
		b = AppendVarint(b, id)
		return AppendVarint(b, 0)
	}
	b = appendInt(b, ParamMaxIdleTimeout, p.MaxIdleTimeoutMS)
	b = appendInt(b, ParamInitialMaxData, p.InitialMaxData)
	b = appendInt(b, ParamInitialMaxStreamData, p.InitialMaxStrData)
	b = appendInt(b, ParamInitialMaxStreams, p.InitialMaxStreams)
	b = appendInt(b, ParamActiveCIDLimit, p.ActiveCIDLimit)
	if p.EnableMultipath {
		b = appendFlag(b, ParamEnableMultipath)
	}
	if p.EnableFEC {
		b = appendFlag(b, ParamEnableFEC)
	}
	return b
}

// knownParams lists the parameter IDs ParseTransportParams decodes; an ID's
// index is its bit in the parser's seen mask.
var knownParams = [...]uint64{
	ParamMaxIdleTimeout, ParamInitialMaxData, ParamInitialMaxStreamData,
	ParamInitialMaxStreams, ParamActiveCIDLimit, ParamEnableMultipath,
	ParamEnableFEC,
}

// ParseTransportParams decodes a parameter block. Unknown parameters are
// skipped, as QUIC requires; a known parameter that appears twice is an
// error (RFC 9000 §7.4: TRANSPORT_PARAMETER_ERROR).
func ParseTransportParams(b []byte) (TransportParams, error) {
	var p TransportParams
	var seen uint16
	for len(b) > 0 {
		id, n, err := ParseVarint(b)
		if err != nil {
			return p, err
		}
		b = b[n:]
		length, n, err := ParseVarint(b)
		if err != nil {
			return p, err
		}
		b = b[n:]
		if uint64(len(b)) < length {
			return p, ErrTruncated
		}
		val := b[:length]
		b = b[length:]
		for i, known := range knownParams {
			if id != known {
				continue
			}
			if seen&(1<<i) != 0 {
				return p, fmt.Errorf("wire: transport param 0x%x repeated", id)
			}
			seen |= 1 << i
		}
		intVal := func() (uint64, error) {
			v, n, err := ParseVarint(val)
			if err != nil {
				return 0, err
			}
			if n != len(val) {
				return 0, fmt.Errorf("wire: transport param 0x%x length mismatch", id)
			}
			return v, nil
		}
		switch id {
		case ParamMaxIdleTimeout:
			if p.MaxIdleTimeoutMS, err = intVal(); err != nil {
				return p, err
			}
		case ParamInitialMaxData:
			if p.InitialMaxData, err = intVal(); err != nil {
				return p, err
			}
		case ParamInitialMaxStreamData:
			if p.InitialMaxStrData, err = intVal(); err != nil {
				return p, err
			}
		case ParamInitialMaxStreams:
			if p.InitialMaxStreams, err = intVal(); err != nil {
				return p, err
			}
		case ParamActiveCIDLimit:
			if p.ActiveCIDLimit, err = intVal(); err != nil {
				return p, err
			}
		case ParamEnableMultipath:
			p.EnableMultipath = true
		case ParamEnableFEC:
			p.EnableFEC = true
		default:
			// Unknown parameter: ignore.
		}
	}
	return p, nil
}
