package transport

import (
	"sync"

	"repro/internal/rangeset"
	"repro/internal/wire"
)

// RecvStream is the receiving half of a stream: it reassembles out-of-order
// STREAM frames, delivers contiguous data in order, and accounts duplicate
// bytes (the receiver-side view of re-injection redundancy).
type RecvStream struct {
	id   uint64
	conn *Conn

	// data holds the received bytes that were not delivered in order yet,
	// plus history bytes below that for the FEC decoder. Its segments come
	// from segPool and go back once delivered and no callback borrows them.
	data     segBuf
	history  uint64
	received rangeset.Set
	// delivered is the offset up to which data was handed to the app.
	delivered uint64
	// highest is the largest stream offset the peer has used, the figure
	// flow control is enforced on.
	highest   uint64
	finSeen   bool
	finOffset uint64
	finished  bool
	// reset marks a stream the peer ended with RESET_STREAM before its FIN
	// was delivered.
	reset bool

	// DuplicateBytes counts received bytes that were already present —
	// redundancy from re-injection or spurious retransmission.
	DuplicateBytes uint64
	// TotalBytes counts all stream payload bytes received, including
	// duplicates.
	TotalBytes uint64

	// consumed flow-control accounting.
	maxData     uint64 // limit advertised to the peer
	initialMax  uint64
	maxDataSent uint64
}

// ID returns the stream ID.
func (r *RecvStream) ID() uint64 { return r.id }

// IsReset reports whether the peer reset the stream before its FIN was
// delivered: the stream's last callback then carries no data and fin set,
// and what arrived before it is not the whole stream.
func (r *RecvStream) IsReset() bool { return r.reset }

// fecHistory is how far below the delivery point a stream keeps its bytes
// when the FEC lane is on: one protection window at the wire's bounds. The
// decoder reads a window's present symbols to rebuild its missing ones, and
// the announcement may arrive after those symbols were delivered; a window
// with a symbol still missing starts less than its own length below the
// delivery point, so this much history always covers it.
const fecHistory = wire.MaxFECSourceSymbols * wire.MaxFECSymbolSize

// onFrame ingests one STREAM frame. It returns the run newly deliverable in
// order, as its first offset and its length (0 when there is none), and
// whether the stream just finished. It releases nothing: the run's segments
// stay until the callback that borrows them has returned (releaseDelivered).
func (r *RecvStream) onFrame(offset uint64, data []byte, fin bool) (from, n uint64, justFinished bool) {
	end := offset + uint64(len(data))
	if fin {
		r.finSeen = true
		r.finOffset = end
	}
	if r.finished {
		r.TotalBytes += uint64(len(data))
		r.DuplicateBytes += uint64(len(data))
		return r.delivered, 0, false
	}
	if len(data) > 0 {
		r.TotalBytes += uint64(len(data))
		added := r.received.Add(offset, end)
		r.DuplicateBytes += uint64(len(data)) - added
		// Bytes below the delivery point are copies nobody will read.
		if skip := max(offset, r.delivered) - offset; skip < uint64(len(data)) {
			r.data.put(offset+skip, data[skip:])
		}
	}
	from = r.delivered
	r.delivered = r.received.CoveredPrefix(from)
	if r.finSeen && r.delivered == r.finOffset {
		r.finished = true
		justFinished = true
	}
	return from, r.delivered - from, justFinished
}

// gathers lends the buffer that a delivery crossing a segment boundary is
// gathered into, as *[]byte so that Put boxes nothing. The callback borrows
// it for the call only, so no connection holds one while idle.
var gathers sync.Pool

// borrow returns the n stored bytes at from as one slice, valid until the
// caller gives back the gather buffer it returns with it (returnGather):
// the segment's own bytes when the run lies in one segment, else a copy in a
// buffer from gathers (nil when none was needed).
func (r *RecvStream) borrow(from, n uint64) ([]byte, *[]byte) {
	if n == 0 {
		return nil, nil
	}
	if out := r.data.span(from, n); uint64(len(out)) == n {
		return out, nil
	}
	// A run crossing a segment boundary: once per segment for in-order
	// arrival, or a filled hole.
	g, _ := gathers.Get().(*[]byte)
	// Pool empty: one buffer per gather in progress at once.
	if g == nil {
		g = new([]byte)
	}
	// The buffer grows to the longest run gathered since the collector last emptied the pool.
	if uint64(cap(*g)) < n {
		*g = make([]byte, 0, n)
	}
	*g = r.data.appendTo((*g)[:0], from, n)
	return *g, g
}

// returnGather gives a gather buffer back to the pool, poisoned under
// xlinkdebug like a released segment.
func returnGather(g *[]byte) {
	poison(*g)
	gathers.Put(g)
}

// releaseDelivered lets go of the segments below the receive floor, or of
// every one once the stream finished. deliverStreamData runs it after the
// callback has returned: the delivered run may alias them, and a callback
// that writes takes its send segments from the same pool.
func (r *RecvStream) releaseDelivered() {
	if r.finished {
		r.data.release(releaseAll)
		return
	}
	r.data.release(r.delivered - min(r.delivered, r.history))
}

// finish ends delivery on a stream the peer reset or the application
// stopped, and drops what it buffered. The segments go to the collector:
// StopSending may run inside the very callback that is reading them.
func (r *RecvStream) finish() {
	r.finished = true
	r.data.drop()
}

// needsMaxDataUpdate reports whether a MAX_STREAM_DATA update should be
// sent: the app consumed past half the advertised window.
func (r *RecvStream) needsMaxDataUpdate() bool {
	if r.finSeen {
		return false
	}
	return r.delivered > r.maxDataSent-min64(r.maxDataSent, r.initialMax/2)
}

// nextMaxData computes the next advertised limit.
func (r *RecvStream) nextMaxData() uint64 {
	r.maxDataSent = r.delivered + r.initialMax
	return r.maxDataSent
}
