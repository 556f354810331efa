package wire

import (
	"errors"
	"fmt"
	"time"
)

// What a malformed ACK body is refused with. Static values: refusing hostile
// input costs no allocation.
var (
	errAckFirstRange  = errors.New("wire: ack first range underflow")
	errAckRangeGap    = errors.New("wire: ack range underflow")
	errAckRangeLength = errors.New("wire: ack range length underflow")
	errQoELength      = errors.New("wire: qoe length mismatch")
)

// AckRange is a contiguous range of acknowledged packet numbers
// [Smallest, Largest].
type AckRange struct {
	Smallest uint64
	Largest  uint64
}

// AckFrame is the single-path ACK frame, used before multi-path is
// negotiated and by the single-path baseline.
type AckFrame struct {
	// Ranges are in descending order; Ranges[0].Largest is the largest
	// acknowledged packet number.
	Ranges   []AckRange
	AckDelay time.Duration
}

func appendAckBody(b []byte, ranges []AckRange, delay time.Duration) []byte {
	b = AppendVarint(b, ranges[0].Largest)
	b = AppendVarint(b, uint64(delay/time.Microsecond))
	b = AppendVarint(b, uint64(len(ranges)-1))
	b = AppendVarint(b, ranges[0].Largest-ranges[0].Smallest)
	prevSmallest := ranges[0].Smallest
	for _, r := range ranges[1:] {
		gap := prevSmallest - r.Largest - 2
		b = AppendVarint(b, gap)
		b = AppendVarint(b, r.Largest-r.Smallest)
		prevSmallest = r.Smallest
	}
	return b
}

func ackBodyLen(ranges []AckRange, delay time.Duration) int {
	n := VarintLen(ranges[0].Largest) + VarintLen(uint64(delay/time.Microsecond)) +
		VarintLen(uint64(len(ranges)-1)) + VarintLen(ranges[0].Largest-ranges[0].Smallest)
	prevSmallest := ranges[0].Smallest
	for _, r := range ranges[1:] {
		n += VarintLen(prevSmallest-r.Largest-2) + VarintLen(r.Largest-r.Smallest)
		prevSmallest = r.Smallest
	}
	return n
}

// maxAckDelay caps the decoded ACK delay. A peer can encode up to 2^62-1
// microseconds, which overflows time.Duration's nanosecond representation
// (and would make the re-encode path panic); any real delay is far below
// an hour, so clamp instead of erroring.
const maxAckDelay = time.Hour

// parseAckBody decodes the body ACK and ACK_MP share. The ranges are appended
// to the decoder's one backing array and returned as a capacity-clipped window
// of it, so they live exactly as long as the frame that carries them.
func (d *Decoder) parseAckBody(b []byte) ([]AckRange, time.Duration, int, error) {
	pos := 0
	largest, n, err := ParseVarint(b)
	if err != nil {
		return nil, 0, 0, err
	}
	pos += n
	delayUS, n, err := ParseVarint(b[pos:])
	if err != nil {
		return nil, 0, 0, err
	}
	pos += n
	rangeCount, n, err := ParseVarint(b[pos:])
	if err != nil {
		return nil, 0, 0, err
	}
	pos += n
	firstRange, n, err := ParseVarint(b[pos:])
	if err != nil {
		return nil, 0, 0, err
	}
	pos += n
	if firstRange > largest {
		return nil, 0, 0, errAckFirstRange
	}
	start := len(d.ranges)
	d.ranges = append(d.ranges, AckRange{Smallest: largest - firstRange, Largest: largest})
	smallest := largest - firstRange
	for i := uint64(0); i < rangeCount; i++ {
		gap, n, err := ParseVarint(b[pos:])
		if err != nil {
			return nil, 0, 0, err
		}
		pos += n
		length, n, err := ParseVarint(b[pos:])
		if err != nil {
			return nil, 0, 0, err
		}
		pos += n
		if gap+2 > smallest {
			return nil, 0, 0, errAckRangeGap
		}
		nextLargest := smallest - gap - 2
		if length > nextLargest {
			return nil, 0, 0, errAckRangeLength
		}
		d.ranges = append(d.ranges, AckRange{Smallest: nextLargest - length, Largest: nextLargest})
		smallest = nextLargest - length
	}
	delay := maxAckDelay
	if delayUS < uint64(maxAckDelay/time.Microsecond) {
		delay = time.Duration(delayUS) * time.Microsecond
	}
	return d.ranges[start:len(d.ranges):len(d.ranges)], delay, pos, nil
}

// Append implements Frame.
func (f *AckFrame) Append(b []byte) []byte {
	b = append(b, byte(TypeAck))
	return appendAckBody(b, f.Ranges, f.AckDelay)
}

// Len implements Frame.
func (f *AckFrame) Len() int { return 1 + ackBodyLen(f.Ranges, f.AckDelay) }

// String implements Frame.
func (f *AckFrame) String() string {
	return fmt.Sprintf("ACK(ranges=%v)", f.Ranges)
}

// QoESignal is the QoE_Control_Signal payload defined by the paper
// (Sec 5.2): the four player metrics the client reports to drive the
// server's re-injection control.
type QoESignal struct {
	// CachedBytes is the player's buffered byte count.
	CachedBytes uint64
	// CachedFrames is the player's buffered frame count.
	CachedFrames uint64
	// BitrateBps is the current video bitrate in bits per second.
	BitrateBps uint64
	// FramerateFPS is the current video framerate (frames per second).
	FramerateFPS uint64
}

// Zero reports whether the signal carries no information.
func (q QoESignal) Zero() bool {
	return q == QoESignal{}
}

// PlaytimeLeft implements the paper's Δt estimator: the conservative
// (minimum) of cached_frames/fps and cached_bytes/bps, using whichever
// denominators are available.
func (q QoESignal) PlaytimeLeft() time.Duration {
	var byFrames, byBytes time.Duration = -1, -1
	if q.FramerateFPS > 0 {
		byFrames = time.Duration(float64(q.CachedFrames) / float64(q.FramerateFPS) * float64(time.Second))
	}
	if q.BitrateBps > 0 {
		byBytes = time.Duration(float64(q.CachedBytes) * 8 / float64(q.BitrateBps) * float64(time.Second))
	}
	switch {
	case byFrames >= 0 && byBytes >= 0:
		if byFrames < byBytes {
			return byFrames
		}
		return byBytes
	case byFrames >= 0:
		return byFrames
	case byBytes >= 0:
		return byBytes
	default:
		return 0
	}
}

func appendQoE(b []byte, q QoESignal) []byte {
	b = AppendVarint(b, q.CachedBytes)
	b = AppendVarint(b, q.CachedFrames)
	b = AppendVarint(b, q.BitrateBps)
	return AppendVarint(b, q.FramerateFPS)
}

func qoeLen(q QoESignal) int {
	return VarintLen(q.CachedBytes) + VarintLen(q.CachedFrames) +
		VarintLen(q.BitrateBps) + VarintLen(q.FramerateFPS)
}

func parseQoE(b []byte) (QoESignal, int, error) {
	var v [4]uint64
	pos := 0
	for i := range v {
		x, n, err := ParseVarint(b[pos:])
		if err != nil {
			return QoESignal{}, 0, fmt.Errorf("wire: qoe field %d: %w", i, err)
		}
		v[i] = x
		pos += n
	}
	return QoESignal{CachedBytes: v[0], CachedFrames: v[1], BitrateBps: v[2], FramerateFPS: v[3]}, pos, nil
}

// AckMPFrame is the multi-path ACK frame (paper Fig 16 / Appendix C). It
// acknowledges packets of the packet-number space identified by PathID (the
// CID sequence number) and optionally piggybacks the QoE control signal, as
// the deployed XLINK implementation does.
type AckMPFrame struct {
	// PathID is the CID sequence number identifying the acknowledged
	// path's packet number space.
	PathID   uint64
	Ranges   []AckRange
	AckDelay time.Duration
	// HasQoE indicates the QoE_Control_Signal field is present.
	HasQoE bool
	QoE    QoESignal
}

// Append implements Frame.
func (f *AckMPFrame) Append(b []byte) []byte {
	b = AppendVarint(b, TypeAckMP)
	b = AppendVarint(b, f.PathID)
	b = appendAckBody(b, f.Ranges, f.AckDelay)
	if f.HasQoE {
		b = AppendVarint(b, uint64(qoeLen(f.QoE)))
		b = appendQoE(b, f.QoE)
	} else {
		b = AppendVarint(b, 0)
	}
	return b
}

// Len implements Frame.
func (f *AckMPFrame) Len() int {
	n := VarintLen(TypeAckMP) + VarintLen(f.PathID) + ackBodyLen(f.Ranges, f.AckDelay)
	if f.HasQoE {
		q := qoeLen(f.QoE)
		n += VarintLen(uint64(q)) + q
	} else {
		n++
	}
	return n
}

// String implements Frame.
func (f *AckMPFrame) String() string {
	return fmt.Sprintf("ACK_MP(path=%d ranges=%v qoe=%v)", f.PathID, f.Ranges, f.HasQoE)
}

func (d *Decoder) parseAckMP(f *AckMPFrame, b []byte) (int, error) {
	pathID, n, err := ParseVarint(b)
	if err != nil {
		return 0, err
	}
	pos := n
	ranges, delay, n, err := d.parseAckBody(b[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	qLen, n, err := ParseVarint(b[pos:])
	if err != nil {
		return 0, err
	}
	pos += n
	f.PathID, f.Ranges, f.AckDelay = pathID, ranges, delay
	if qLen > 0 {
		if uint64(len(b)-pos) < qLen {
			return 0, ErrTruncated
		}
		q, n, err := parseQoE(b[pos : pos+int(qLen)])
		if err != nil {
			return 0, err
		}
		if n != int(qLen) {
			return 0, errQoELength
		}
		f.HasQoE = true
		f.QoE = q
		pos += n
	}
	return pos, nil
}
