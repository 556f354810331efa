package wire

import "fmt"

// Decoder parses packet payloads into frame storage it owns (DESIGN.md §18).
// The frame types a steady-state packet carries — STREAM, ACK and ACK_MP with
// one backing array for the ranges of both, MAX_DATA and MAX_STREAM_DATA —
// are carved from typed slabs that AppendFrames rewinds on entry, so a warm
// decoder parses them without allocating. Those frames,
// and the ranges they point to, are valid until the next AppendFrames call on
// the same Decoder. Every other frame type is allocated individually and may
// be kept by the receiver.
//
// The zero value is ready to use. A Decoder used for one call and dropped
// hands its storage over to the frames: that is how the package-level
// ParseFrame, AppendFrames and ParseAll keep their "caller may keep the
// frame" meaning over the same parse functions.
type Decoder struct {
	stream        []StreamFrame
	ack           []AckFrame
	ackMP         []AckMPFrame
	ranges        []AckRange
	maxData       []MaxDataFrame
	maxStreamData []MaxStreamDataFrame
}

// slot extends slab by one zeroed element and returns it. When the slab has
// to grow, elements handed out earlier stay behind in the old array, where
// the frames pointing at them remain valid.
func slot[T any](slab *[]T) *T {
	var zero T
	s := append(*slab, zero)
	*slab = s
	return &s[len(s)-1]
}

// AppendFrames decodes every frame in a packet payload, appending to frames
// (pass a reused slice truncated to [:0]). It first reclaims the storage of
// the previous call: frames that call returned must no longer be in use.
// Padding runs are consumed without materializing a PaddingFrame: padding
// carries no semantics, every receiver ignores it, and the receive hot path
// parses each packet — minimum-size packets would otherwise cost one
// allocation apiece. Use ParseFrame to inspect padding explicitly. On error
// the appended prefix is discarded and nil is returned.
func (d *Decoder) AppendFrames(frames []Frame, b []byte) ([]Frame, error) {
	d.stream = d.stream[:0]
	d.ack = d.ack[:0]
	d.ackMP = d.ackMP[:0]
	d.ranges = d.ranges[:0]
	d.maxData = d.maxData[:0]
	d.maxStreamData = d.maxStreamData[:0]
	for len(b) > 0 {
		if run := paddingRun(b); run > 0 {
			b = b[run:]
			continue
		}
		f, n, err := d.parseFrame(b)
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
		b = b[n:]
	}
	return frames, nil
}

// paddingRun returns how many PADDING bytes b starts with.
func paddingRun(b []byte) int {
	run := 0
	for run < len(b) && b[run] == byte(TypePadding) {
		run++
	}
	return run
}

// parseFrame decodes the frame at the front of b, returning it and the
// bytes consumed. Frame types must use the minimal varint encoding
// (RFC 9000 §12.4); in particular a non-minimal PADDING type would break
// the byte-counting coalescers in AppendFrames and ParseFrame, which take
// padding off before it gets here.
func (d *Decoder) parseFrame(b []byte) (Frame, int, error) {
	typ, n, err := ParseVarintMinimal(b)
	if err != nil {
		return nil, 0, err
	}
	rest := b[n:]
	var f Frame
	var m int
	switch {
	case typ == TypePing:
		// PING is stateless; every parse returns the same shared instance so
		// ping-heavy batches stay allocation-free.
		return &sharedPing, n, nil
	case typ == TypeAck:
		af := slot(&d.ack)
		af.Ranges, af.AckDelay, m, err = d.parseAckBody(rest)
		f = af
	case typ == TypeResetStream:
		f, m, err = parseResetStream(rest)
	case typ == TypeStopSending:
		f, m, err = parseStopSending(rest)
	case typ == TypeCrypto:
		f, m, err = parseCrypto(rest)
	case typ >= TypeStreamBase && typ <= TypeStreamBase+7:
		sf := slot(&d.stream)
		m, err = parseStream(sf, byte(typ), rest)
		f = sf
	case typ == TypeMaxData:
		mf := slot(&d.maxData)
		mf.MaxData, m, err = ParseVarint(rest)
		f = mf
	case typ == TypeMaxStreamData:
		mf := slot(&d.maxStreamData)
		m, err = parseMaxStreamData(mf, rest)
		f = mf
	case typ == TypeNewConnectionID:
		f, m, err = parseNewConnectionID(rest)
	case typ == TypePathChallenge:
		f, m, err = parsePathChallenge(rest)
	case typ == TypePathResponse:
		f, m, err = parsePathResponse(rest)
	case typ == TypeConnectionClose:
		f, m, err = parseConnectionClose(rest)
	case typ == TypeHandshakeDone:
		return &HandshakeDoneFrame{}, n, nil
	case typ == TypeAckMP:
		af := slot(&d.ackMP)
		m, err = d.parseAckMP(af, rest)
		f = af
	case typ == TypePathStatus:
		f, m, err = parsePathStatus(rest)
	case typ == TypeFECWindow:
		f, m, err = parseFECWindow(rest)
	case typ == TypeFECRepair:
		f, m, err = parseFECRepair(rest)
	case typ == TypeFECRecovered:
		f, m, err = parseFECRecovered(rest)
	default:
		return nil, 0, fmt.Errorf("wire: unknown frame type 0x%x", typ)
	}
	if err != nil {
		return nil, 0, err
	}
	return f, n + m, nil
}
