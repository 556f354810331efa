package wire

import "fmt"

// Forward-erasure-correction extension frames (DESIGN.md §13). The sender
// groups a contiguous range of one stream's STREAM data into a *window* of
// equal-size source symbols and emits repair symbols computed over them, so
// a receiver can rebuild lost source data without waiting an RTT for a
// retransmission (Michel et al., "Adding Forward Erasure Correction to
// QUIC"). Three frames carry the lane:
//
//	FEC_WINDOW    — window metadata: which byte range is protected and how
//	FEC_REPAIR    — one repair symbol for a previously announced window
//	FEC_RECOVERED — receiver→sender: a byte range was rebuilt by the
//	                decoder, so retransmission/re-injection of it is moot
//
// All fields use minimal varint encoding. Parsing is defensive: every
// count and size is bounded below the limits the transport enforces, so a
// malformed frame is rejected at the wire layer before it can size any
// decoder allocation.

// FEC coding schemes.
const (
	// FECSchemeXOR: the single repair symbol is the XOR of all source
	// symbols; recovers exactly one loss per window.
	FECSchemeXOR uint64 = 0
	// FECSchemeRS: Reed-Solomon-style Vandermonde code over GF(256);
	// r repair symbols recover up to r losses per window.
	FECSchemeRS uint64 = 1
)

// Wire-level sanity bounds for FEC frames. These cap what a peer can make
// the decoder buffer; the transport's own window limits are tighter.
const (
	// MaxFECSourceSymbols bounds K, the source symbols per window.
	MaxFECSourceSymbols = 64
	// MaxFECRepairSymbols bounds the repair symbols per window.
	MaxFECRepairSymbols = 16
	// MaxFECSymbolSize bounds one symbol's payload; a repair symbol must
	// fit a single datagram alongside its header.
	MaxFECSymbolSize = 1280
)

// FECWindowFrame announces one protection window: Data[BaseOffset,
// BaseOffset+DataLen) of stream StreamID, split into ceil(DataLen/
// SymbolSize) source symbols (the last zero-padded), over which Repairs
// repair symbols follow under Scheme.
type FECWindowFrame struct {
	WindowID   uint64
	StreamID   uint64
	BaseOffset uint64
	DataLen    uint64
	SymbolSize uint64
	Scheme     uint64
	Repairs    uint64
}

// SourceSymbols returns K, the source symbol count of the window.
func (f *FECWindowFrame) SourceSymbols() int {
	return int((f.DataLen + f.SymbolSize - 1) / f.SymbolSize)
}

// Append implements Frame.
func (f *FECWindowFrame) Append(b []byte) []byte {
	b = AppendVarint(b, TypeFECWindow)
	b = AppendVarint(b, f.WindowID)
	b = AppendVarint(b, f.StreamID)
	b = AppendVarint(b, f.BaseOffset)
	b = AppendVarint(b, f.DataLen)
	b = AppendVarint(b, f.SymbolSize)
	b = AppendVarint(b, f.Scheme)
	return AppendVarint(b, f.Repairs)
}

// Len implements Frame.
func (f *FECWindowFrame) Len() int {
	return VarintLen(TypeFECWindow) + VarintLen(f.WindowID) + VarintLen(f.StreamID) +
		VarintLen(f.BaseOffset) + VarintLen(f.DataLen) + VarintLen(f.SymbolSize) +
		VarintLen(f.Scheme) + VarintLen(f.Repairs)
}

// String implements Frame.
func (f *FECWindowFrame) String() string {
	scheme := "xor"
	if f.Scheme == FECSchemeRS {
		scheme = "rs"
	}
	return fmt.Sprintf("FEC_WINDOW(win=%d stream=%d off=%d len=%d sym=%d %s r=%d)",
		f.WindowID, f.StreamID, f.BaseOffset, f.DataLen, f.SymbolSize, scheme, f.Repairs)
}

func parseFECWindow(b []byte) (Frame, int, error) {
	f := &FECWindowFrame{}
	pos := 0
	for _, dst := range []*uint64{&f.WindowID, &f.StreamID, &f.BaseOffset,
		&f.DataLen, &f.SymbolSize, &f.Scheme, &f.Repairs} {
		v, n, err := ParseVarint(b[pos:])
		if err != nil {
			return nil, 0, err
		}
		*dst = v
		pos += n
	}
	if f.SymbolSize == 0 || f.SymbolSize > MaxFECSymbolSize {
		return nil, 0, fmt.Errorf("wire: fec window symbol size %d out of range", f.SymbolSize)
	}
	if f.DataLen == 0 || f.DataLen > MaxFECSourceSymbols*f.SymbolSize {
		return nil, 0, fmt.Errorf("wire: fec window data length %d out of range", f.DataLen)
	}
	if f.BaseOffset+f.DataLen < f.BaseOffset {
		return nil, 0, fmt.Errorf("wire: fec window range overflow")
	}
	if f.Scheme > FECSchemeRS {
		return nil, 0, fmt.Errorf("wire: fec window unknown scheme %d", f.Scheme)
	}
	if f.Repairs == 0 || f.Repairs > MaxFECRepairSymbols {
		return nil, 0, fmt.Errorf("wire: fec window repair count %d out of range", f.Repairs)
	}
	if f.Scheme == FECSchemeXOR && f.Repairs != 1 {
		return nil, 0, fmt.Errorf("wire: fec xor window with %d repairs", f.Repairs)
	}
	return f, pos, nil
}

// FECRepairFrame carries one repair symbol for a window. The payload length
// must equal the window's SymbolSize; the receiver checks the match when it
// pairs the symbol with its window (the frames may arrive in either order).
type FECRepairFrame struct {
	WindowID uint64
	// Index identifies the repair symbol within the window's code
	// (0 ≤ Index < window.Repairs).
	Index uint64
	Data  []byte
}

// Append implements Frame.
func (f *FECRepairFrame) Append(b []byte) []byte {
	b = AppendVarint(b, TypeFECRepair)
	b = AppendVarint(b, f.WindowID)
	b = AppendVarint(b, f.Index)
	b = AppendVarint(b, uint64(len(f.Data)))
	return append(b, f.Data...)
}

// Len implements Frame.
func (f *FECRepairFrame) Len() int {
	return VarintLen(TypeFECRepair) + VarintLen(f.WindowID) + VarintLen(f.Index) +
		VarintLen(uint64(len(f.Data))) + len(f.Data)
}

// String implements Frame.
func (f *FECRepairFrame) String() string {
	return fmt.Sprintf("FEC_REPAIR(win=%d idx=%d bytes=%d)", f.WindowID, f.Index, len(f.Data))
}

func parseFECRepair(b []byte) (Frame, int, error) {
	winID, n, err := ParseVarint(b)
	if err != nil {
		return nil, 0, err
	}
	pos := n
	idx, n, err := ParseVarint(b[pos:])
	if err != nil {
		return nil, 0, err
	}
	pos += n
	if idx >= MaxFECRepairSymbols {
		return nil, 0, fmt.Errorf("wire: fec repair index %d out of range", idx)
	}
	length, n, err := ParseVarint(b[pos:])
	if err != nil {
		return nil, 0, err
	}
	pos += n
	if length == 0 || length > MaxFECSymbolSize {
		return nil, 0, fmt.Errorf("wire: fec repair payload %d out of range", length)
	}
	if uint64(len(b)-pos) < length {
		return nil, 0, ErrTruncated
	}
	f := &FECRepairFrame{
		WindowID: winID,
		Index:    idx,
		// The copy must outlive the datagram buffer: repair frames are parked past the packet (DESIGN.md §18).
		Data: append([]byte(nil), b[pos:pos+int(length)]...),
	}
	return f, pos + int(length), nil
}

// FECRecoveredFrame tells the sender that the receiver's FEC decoder
// rebuilt [Offset, Offset+Length) of stream StreamID, so pending
// retransmission and re-injection of that range can be dropped. It is
// advisory and sent unreliably: losing it only costs redundant resends.
type FECRecoveredFrame struct {
	StreamID uint64
	Offset   uint64
	Length   uint64
}

// Append implements Frame.
func (f *FECRecoveredFrame) Append(b []byte) []byte {
	b = AppendVarint(b, TypeFECRecovered)
	b = AppendVarint(b, f.StreamID)
	b = AppendVarint(b, f.Offset)
	return AppendVarint(b, f.Length)
}

// Len implements Frame.
func (f *FECRecoveredFrame) Len() int {
	return VarintLen(TypeFECRecovered) + VarintLen(f.StreamID) +
		VarintLen(f.Offset) + VarintLen(f.Length)
}

// String implements Frame.
func (f *FECRecoveredFrame) String() string {
	return fmt.Sprintf("FEC_RECOVERED(stream=%d off=%d len=%d)", f.StreamID, f.Offset, f.Length)
}

func parseFECRecovered(b []byte) (Frame, int, error) {
	streamID, n, err := ParseVarint(b)
	if err != nil {
		return nil, 0, err
	}
	pos := n
	off, n, err := ParseVarint(b[pos:])
	if err != nil {
		return nil, 0, err
	}
	pos += n
	length, n, err := ParseVarint(b[pos:])
	if err != nil {
		return nil, 0, err
	}
	pos += n
	if length == 0 {
		return nil, 0, fmt.Errorf("wire: fec recovered empty range")
	}
	if off+length < off {
		return nil, 0, fmt.Errorf("wire: fec recovered range overflow")
	}
	return &FECRecoveredFrame{StreamID: streamID, Offset: off, Length: length}, pos, nil
}
