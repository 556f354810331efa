package transport

import (
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
	// plus history bytes below that for the FEC decoder. Its segments are
	// never recycled: the application holds slices of them (see sendSegs).
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

// Finished reports whether the stream was fully delivered including FIN.
func (r *RecvStream) Finished() bool { return r.finished }

// Delivered returns the count of in-order bytes handed to the application.
func (r *RecvStream) Delivered() uint64 { return r.delivered }

// fecHistory is how far below the delivery point a stream keeps its bytes
// when the FEC lane is on: one protection window at the wire's bounds. The
// decoder reads a window's present symbols to rebuild its missing ones, and
// the announcement may arrive after those symbols were delivered; a window
// with a symbol still missing starts less than its own length below the
// delivery point, so this much history always covers it.
const fecHistory = wire.MaxFECSourceSymbols * wire.MaxFECSymbolSize

// onFrame ingests one STREAM frame. It returns the data newly deliverable
// in order (possibly nil) and whether the stream just finished. The returned
// slice is the application's to keep: nothing writes below the delivery
// point again, and the segment under it is garbage-collected, not reused.
func (r *RecvStream) onFrame(offset uint64, data []byte, fin bool) ([]byte, bool) {
	end := offset + uint64(len(data))
	if fin {
		r.finSeen = true
		r.finOffset = end
	}
	if r.finished {
		r.TotalBytes += uint64(len(data))
		r.DuplicateBytes += uint64(len(data))
		return nil, false
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
	// Deliver the newly contiguous prefix.
	newEnd := r.received.CoveredPrefix(r.delivered)
	var out []byte
	if n := newEnd - r.delivered; n > 0 {
		out = r.data.span(r.delivered, n)
		//xlinkvet:cold — a run crossing a segment boundary (once per segment in order, or a filled hole): the callback takes one slice
		if uint64(len(out)) < n {
			out = r.data.appendTo(make([]byte, 0, n), r.delivered, n)
		}
		r.delivered = newEnd
	}
	justFinished := false
	if r.finSeen && r.delivered == r.finOffset {
		r.finish()
		justFinished = true
	} else {
		r.data.release(r.delivered - min(r.delivered, r.history))
	}
	return out, justFinished
}

// finish ends delivery on the stream — everything arrived, the peer reset
// it, or the application stopped it — and lets go of what it buffered.
func (r *RecvStream) finish() {
	r.finished = true
	r.data.release(releaseAll)
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
