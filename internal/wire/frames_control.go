package wire

import "fmt"

// MaxDataFrame raises the connection-level flow control limit.
type MaxDataFrame struct {
	MaxData uint64
}

// Append implements Frame.
func (f *MaxDataFrame) Append(b []byte) []byte {
	b = append(b, byte(TypeMaxData))
	return AppendVarint(b, f.MaxData)
}

// Len implements Frame.
func (f *MaxDataFrame) Len() int { return 1 + VarintLen(f.MaxData) }

// String implements Frame.
func (f *MaxDataFrame) String() string { return fmt.Sprintf("MAX_DATA(%d)", f.MaxData) }

// MaxStreamDataFrame raises a stream's flow control limit.
type MaxStreamDataFrame struct {
	StreamID      uint64
	MaxStreamData uint64
}

// Append implements Frame.
func (f *MaxStreamDataFrame) Append(b []byte) []byte {
	b = append(b, byte(TypeMaxStreamData))
	b = AppendVarint(b, f.StreamID)
	return AppendVarint(b, f.MaxStreamData)
}

// Len implements Frame.
func (f *MaxStreamDataFrame) Len() int {
	return 1 + VarintLen(f.StreamID) + VarintLen(f.MaxStreamData)
}

// String implements Frame.
func (f *MaxStreamDataFrame) String() string {
	return fmt.Sprintf("MAX_STREAM_DATA(id=%d max=%d)", f.StreamID, f.MaxStreamData)
}

func parseMaxStreamData(f *MaxStreamDataFrame, b []byte) (int, error) {
	id, n, err := ParseVarint(b)
	if err != nil {
		return 0, err
	}
	v, m, err := ParseVarint(b[n:])
	if err != nil {
		return 0, err
	}
	f.StreamID, f.MaxStreamData = id, v
	return n + m, nil
}

// ResetStreamFrame abruptly terminates the sending part of a stream.
type ResetStreamFrame struct {
	StreamID  uint64
	ErrorCode uint64
	FinalSize uint64
}

// Append implements Frame.
func (f *ResetStreamFrame) Append(b []byte) []byte {
	b = append(b, byte(TypeResetStream))
	b = AppendVarint(b, f.StreamID)
	b = AppendVarint(b, f.ErrorCode)
	return AppendVarint(b, f.FinalSize)
}

// Len implements Frame.
func (f *ResetStreamFrame) Len() int {
	return 1 + VarintLen(f.StreamID) + VarintLen(f.ErrorCode) + VarintLen(f.FinalSize)
}

// String implements Frame.
func (f *ResetStreamFrame) String() string {
	return fmt.Sprintf("RESET_STREAM(id=%d err=%d final=%d)", f.StreamID, f.ErrorCode, f.FinalSize)
}

func parseResetStream(b []byte) (Frame, int, error) {
	f := &ResetStreamFrame{}
	pos := 0
	for _, dst := range []*uint64{&f.StreamID, &f.ErrorCode, &f.FinalSize} {
		v, n, err := ParseVarint(b[pos:])
		if err != nil {
			return nil, 0, err
		}
		*dst = v
		pos += n
	}
	return f, pos, nil
}

// StopSendingFrame asks the peer to stop sending on a stream.
type StopSendingFrame struct {
	StreamID  uint64
	ErrorCode uint64
}

// Append implements Frame.
func (f *StopSendingFrame) Append(b []byte) []byte {
	b = append(b, byte(TypeStopSending))
	b = AppendVarint(b, f.StreamID)
	return AppendVarint(b, f.ErrorCode)
}

// Len implements Frame.
func (f *StopSendingFrame) Len() int {
	return 1 + VarintLen(f.StreamID) + VarintLen(f.ErrorCode)
}

// String implements Frame.
func (f *StopSendingFrame) String() string {
	return fmt.Sprintf("STOP_SENDING(id=%d err=%d)", f.StreamID, f.ErrorCode)
}

func parseStopSending(b []byte) (Frame, int, error) {
	id, n, err := ParseVarint(b)
	if err != nil {
		return nil, 0, err
	}
	v, m, err := ParseVarint(b[n:])
	if err != nil {
		return nil, 0, err
	}
	return &StopSendingFrame{StreamID: id, ErrorCode: v}, n + m, nil
}

// NewConnectionIDFrame provisions the peer with an additional CID; the CID's
// sequence number identifies the path that will use it.
type NewConnectionIDFrame struct {
	Sequence     uint64
	RetirePrior  uint64
	ConnectionID ConnectionID
	// ResetToken is the 16-byte stateless reset token.
	ResetToken [16]byte
}

// Append implements Frame.
func (f *NewConnectionIDFrame) Append(b []byte) []byte {
	b = append(b, byte(TypeNewConnectionID))
	b = AppendVarint(b, f.Sequence)
	b = AppendVarint(b, f.RetirePrior)
	b = append(b, byte(len(f.ConnectionID)))
	b = append(b, f.ConnectionID...)
	return append(b, f.ResetToken[:]...)
}

// Len implements Frame.
func (f *NewConnectionIDFrame) Len() int {
	return 1 + VarintLen(f.Sequence) + VarintLen(f.RetirePrior) + 1 + len(f.ConnectionID) + 16
}

// String implements Frame.
func (f *NewConnectionIDFrame) String() string {
	return fmt.Sprintf("NEW_CONNECTION_ID(seq=%d cid=%s)", f.Sequence, f.ConnectionID)
}

func parseNewConnectionID(b []byte) (Frame, int, error) {
	f := &NewConnectionIDFrame{}
	seq, n, err := ParseVarint(b)
	if err != nil {
		return nil, 0, err
	}
	f.Sequence = seq
	pos := n
	rp, n, err := ParseVarint(b[pos:])
	if err != nil {
		return nil, 0, err
	}
	f.RetirePrior = rp
	pos += n
	if pos >= len(b) {
		return nil, 0, ErrTruncated
	}
	cidLen := int(b[pos])
	pos++
	if cidLen > MaxCIDLen {
		return nil, 0, fmt.Errorf("wire: cid too long: %d", cidLen)
	}
	if len(b)-pos < cidLen+16 {
		return nil, 0, ErrTruncated
	}
	f.ConnectionID = append(ConnectionID(nil), b[pos:pos+cidLen]...)
	pos += cidLen
	copy(f.ResetToken[:], b[pos:pos+16])
	pos += 16
	return f, pos, nil
}

// PathChallengeFrame carries 8 bytes of entropy to validate a path
// (anti-spoofing, Sec 6).
type PathChallengeFrame struct {
	Data [8]byte
}

// Append implements Frame.
func (f *PathChallengeFrame) Append(b []byte) []byte {
	b = append(b, byte(TypePathChallenge))
	return append(b, f.Data[:]...)
}

// Len implements Frame.
func (f *PathChallengeFrame) Len() int { return 9 }

// String implements Frame.
func (f *PathChallengeFrame) String() string { return "PATH_CHALLENGE" }

func parsePathChallenge(b []byte) (Frame, int, error) {
	if len(b) < 8 {
		return nil, 0, ErrTruncated
	}
	f := &PathChallengeFrame{}
	copy(f.Data[:], b[:8])
	return f, 8, nil
}

// PathResponseFrame echoes a PATH_CHALLENGE.
type PathResponseFrame struct {
	Data [8]byte
}

// Append implements Frame.
func (f *PathResponseFrame) Append(b []byte) []byte {
	b = append(b, byte(TypePathResponse))
	return append(b, f.Data[:]...)
}

// Len implements Frame.
func (f *PathResponseFrame) Len() int { return 9 }

// String implements Frame.
func (f *PathResponseFrame) String() string { return "PATH_RESPONSE" }

func parsePathResponse(b []byte) (Frame, int, error) {
	if len(b) < 8 {
		return nil, 0, ErrTruncated
	}
	f := &PathResponseFrame{}
	copy(f.Data[:], b[:8])
	return f, 8, nil
}

// ConnectionCloseFrame terminates the connection.
type ConnectionCloseFrame struct {
	ErrorCode uint64
	Reason    string
}

// Append implements Frame.
func (f *ConnectionCloseFrame) Append(b []byte) []byte {
	b = append(b, byte(TypeConnectionClose))
	b = AppendVarint(b, f.ErrorCode)
	b = AppendVarint(b, uint64(len(f.Reason)))
	return append(b, f.Reason...)
}

// Len implements Frame.
func (f *ConnectionCloseFrame) Len() int {
	return 1 + VarintLen(f.ErrorCode) + VarintLen(uint64(len(f.Reason))) + len(f.Reason)
}

// String implements Frame.
func (f *ConnectionCloseFrame) String() string {
	return fmt.Sprintf("CONNECTION_CLOSE(err=%d %q)", f.ErrorCode, f.Reason)
}

func parseConnectionClose(b []byte) (Frame, int, error) {
	code, n, err := ParseVarint(b)
	if err != nil {
		return nil, 0, err
	}
	pos := n
	rl, n, err := ParseVarint(b[pos:])
	if err != nil {
		return nil, 0, err
	}
	pos += n
	if uint64(len(b)-pos) < rl {
		return nil, 0, ErrTruncated
	}
	reason := string(b[pos : pos+int(rl)])
	return &ConnectionCloseFrame{ErrorCode: code, Reason: reason}, pos + int(rl), nil
}

// HandshakeDoneFrame confirms handshake completion (server to client).
type HandshakeDoneFrame struct{}

// Append implements Frame.
func (f *HandshakeDoneFrame) Append(b []byte) []byte { return append(b, byte(TypeHandshakeDone)) }

// Len implements Frame.
func (f *HandshakeDoneFrame) Len() int { return 1 }

// String implements Frame.
func (f *HandshakeDoneFrame) String() string { return "HANDSHAKE_DONE" }

// PathState is the status value carried in a PATH_STATUS frame.
type PathState uint64

// PATH_STATUS values from the draft: Abandon releases path resources,
// Standby deprioritizes the path, Available marks it usable.
const (
	PathAbandon   PathState = 0
	PathStandby   PathState = 1
	PathAvailable PathState = 2
)

// String returns the status name.
func (s PathState) String() string {
	switch s {
	case PathAbandon:
		return "abandon"
	case PathStandby:
		return "standby"
	case PathAvailable:
		return "available"
	default:
		return "invalid"
	}
}

// PathStatusFrame informs the peer of the sender's view of a path, keyed by
// the CID sequence number (path identifier). StatusSeq orders updates.
type PathStatusFrame struct {
	PathID    uint64
	StatusSeq uint64
	Status    PathState
}

// Append implements Frame.
func (f *PathStatusFrame) Append(b []byte) []byte {
	b = AppendVarint(b, TypePathStatus)
	b = AppendVarint(b, f.PathID)
	b = AppendVarint(b, f.StatusSeq)
	return AppendVarint(b, uint64(f.Status))
}

// Len implements Frame.
func (f *PathStatusFrame) Len() int {
	return VarintLen(TypePathStatus) + VarintLen(f.PathID) +
		VarintLen(f.StatusSeq) + VarintLen(uint64(f.Status))
}

// String implements Frame.
func (f *PathStatusFrame) String() string {
	return fmt.Sprintf("PATH_STATUS(path=%d seq=%d %s)", f.PathID, f.StatusSeq, f.Status)
}

func parsePathStatus(b []byte) (Frame, int, error) {
	f := &PathStatusFrame{}
	pos := 0
	id, n, err := ParseVarint(b)
	if err != nil {
		return nil, 0, err
	}
	f.PathID = id
	pos += n
	seq, n, err := ParseVarint(b[pos:])
	if err != nil {
		return nil, 0, err
	}
	f.StatusSeq = seq
	pos += n
	st, n, err := ParseVarint(b[pos:])
	if err != nil {
		return nil, 0, err
	}
	if st > uint64(PathAvailable) {
		return nil, 0, fmt.Errorf("wire: invalid path status %d", st)
	}
	f.Status = PathState(st)
	pos += n
	return f, pos, nil
}
