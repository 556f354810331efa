package transport

import (
	"repro/internal/assert"
	"repro/internal/rangeset"
	"repro/internal/wire"
)

// FrameRange marks a video-frame region inside a stream, registered through
// the stream_send API (Sec 5.1, "First-video-frame acceleration"): the
// application tags the byte range holding a video frame with a priority so
// the scheduler can re-inject at video-frame granularity. Lower Prio values
// are more urgent; the first video frame is tagged with priority 0.
type FrameRange struct {
	Start uint64
	End   uint64
	Prio  int
}

// chunk is one schedulable piece of stream data: either new data, a
// retransmission, or a re-injected duplicate of an unacked packet's data.
type chunk struct {
	streamID uint64
	offset   uint64
	length   uint64
	fin      bool
	// reinjection marks duplicate data sent to decouple paths.
	reinjection bool
	// originPath is the path the original transmission used; re-injected
	// copies should travel on a different path.
	originPath uint64
	// framePrio orders re-injections under video-frame priority mode.
	framePrio int
	// isNew marks a first transmission of never-sent data (vs. a
	// retransmission or re-injection), for accounting.
	isNew bool
}

// SendStream is the sending half of a stream. All mutation happens on the
// connection's event loop.
type SendStream struct {
	id   uint64
	conn *Conn

	// data holds the written bytes at or above released; written counts
	// every byte the application wrote.
	data    segBuf
	written uint64
	// released is the send side's release floor: the first byte the peer is
	// not known to hold. Everything the schedulers can still ask for — new
	// data, rtx, reinjQ, FEC source windows — lies at or above it, so the
	// segments below it are gone.
	released  uint64
	fin       bool
	finOffset uint64

	// next offset of never-sent data.
	nextOffset uint64
	// rtx holds loss-triggered retransmission ranges.
	rtx rangeset.Set
	// acked tracks peer-acknowledged ranges (via any path or copy).
	acked rangeset.Set
	// reinjQ holds pending re-injection chunks, ordered by framePrio then
	// enqueue order. Entries leave when they are sent, when the peer holds
	// all of their data (dropDelivered), or at Reset.
	reinjQ []chunk
	// scanned[i] is the first packet number on path c.paths[i] that
	// scanReinjections has not examined for this stream yet.
	scanned []uint64
	// inFlight counts this stream's chunks in packets neither acked nor
	// declared lost — what a re-injection scan could still find.
	inFlight int
	// retired marks a stream that can never send again (finished and
	// delivered with nothing in flight or queued, or reset): it has left the
	// connection's streamOrder, and leaves sendStreams once inFlight is 0.
	retired bool
	// fecCovered tracks ranges the FEC encoder protected with repair
	// symbols: the re-injection scanner skips them, since the QoE gate
	// picked proactive protection for them (DESIGN.md §13).
	fecCovered rangeset.Set
	// recovered tracks ranges the peer's FEC decoder reports rebuilt
	// (FEC_RECOVERED): neither retransmission nor re-injection is needed.
	recovered rangeset.Set

	// frames are the application-tagged video-frame ranges that end above
	// released, disjoint and sorted by Start. Data outside any range behaves
	// as priority defaultFramePrio.
	frames []FrameRange

	// peerMaxData is the stream-level flow control limit from the peer.
	peerMaxData uint64

	// finChunkSent records that a chunk carrying the FIN bit was sent;
	// finAcked records that the peer acknowledged it.
	finChunkSent bool
	finAcked     bool

	// reset marks the stream abruptly terminated (RESET_STREAM sent);
	// no further data is scheduled, including re-injections.
	reset     bool
	resetCode uint64
}

// defaultFramePrio is the priority of untagged stream data, less urgent
// than any tagged video frame.
const defaultFramePrio = 1 << 20

// streamIDSet is a set of stream IDs: one range set per stream type (the two
// low bits of an ID) over the IDs shifted right by two, so the streams of one
// type that close in order are a single range, however many there were.
type streamIDSet [4]rangeset.Set

func (s *streamIDSet) add(id uint64)      { s[id&3].Add(id>>2, id>>2+1) }
func (s *streamIDSet) has(id uint64) bool { return s[id&3].Contains(id>>2, id>>2+1) }

// ID returns the stream ID.
func (s *SendStream) ID() uint64 { return s.id }

// Write appends data to the stream's send buffer. It never blocks; flow
// control gates transmission, not buffering.
func (s *SendStream) Write(data []byte) {
	if s.fin || s.reset || s.conn.Closed() {
		return // nothing written now can ever be sent: do not buffer it
	}
	s.data.put(s.written, data)
	s.written += uint64(len(data))
	s.conn.wakeSend()
}

// WriteFrame appends data and tags it as a video frame with the given
// priority — the paper's stream_send(position, size, priority) API. The
// position is implicit: the current end of the stream.
func (s *SendStream) WriteFrame(data []byte, prio int) {
	if s.fin || s.reset || s.conn.Closed() {
		return
	}
	// The range starts at the end of the stream, at or beyond every range
	// tagged before it: appending keeps frames sorted.
	s.frames = append(s.frames, FrameRange{Start: s.written, End: s.written + uint64(len(data)), Prio: prio})
	s.Write(data)
}

// MarkFrame tags an existing byte range [start, end) as a video frame with
// the given priority. A range that is empty, reaches beyond the written or
// below the released bytes, or overlaps a tagged range is ignored.
func (s *SendStream) MarkFrame(start, end uint64, prio int) {
	if start >= end || end > s.written || start < s.released {
		return
	}
	i := s.frameAfter(start)
	if (i > 0 && s.frames[i-1].End > start) || (i < len(s.frames) && s.frames[i].Start < end) {
		return
	}
	s.frames = append(s.frames, FrameRange{})
	copy(s.frames[i+1:], s.frames[i:])
	s.frames[i] = FrameRange{Start: start, End: end, Prio: prio}
}

// frameAfter returns the index of the first tagged range starting beyond
// offset.
func (s *SendStream) frameAfter(offset uint64) int {
	lo, hi := 0, len(s.frames)
	for lo < hi {
		if mid := (lo + hi) / 2; s.frames[mid].Start > offset {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Reset abruptly terminates the sending side of the stream (swipe-away in
// a short-video UI): pending data, retransmissions and re-injections are
// dropped and a RESET_STREAM tells the peer the final size. A stream the
// peer already holds in full is in RFC 9000's terminal "Data Recvd" state
// (§3.1): there is nothing left to abort, and Reset does nothing.
func (s *SendStream) Reset(code uint64) {
	if s.reset || s.retired || s.complete() {
		return
	}
	s.reset = true
	s.resetCode = code
	s.rtx = rangeset.Set{}
	s.conn.dropReinjections(s)
	s.data.drop()
	s.frames = nil
	s.conn.queueCtrl(&wire.ResetStreamFrame{
		StreamID:  s.id,
		ErrorCode: code,
		FinalSize: s.nextOffset,
	}, -1, true)
	s.conn.maybeForget(s)
}

// Close marks the end of the stream; the final offset is the count of
// bytes written.
func (s *SendStream) Close() {
	if s.fin {
		return
	}
	s.fin = true
	s.finOffset = s.written
	s.conn.wakeSend()
}

// Buffered returns the total bytes written so far.
func (s *SendStream) Buffered() uint64 { return s.written }

// frameAt returns the frame range covering offset, or an implicit
// default-priority range spanning to the next tagged frame (or stream end).
// The tagged ranges are disjoint, so the one search that finds the first
// range starting beyond offset finds both: the range before it is the only
// one that can cover offset, and it bounds an untagged region.
func (s *SendStream) frameAt(offset uint64) FrameRange {
	i := s.frameAfter(offset)
	if i > 0 && offset < s.frames[i-1].End {
		return s.frames[i-1]
	}
	end := s.written
	if i < len(s.frames) && s.frames[i].Start < end {
		end = s.frames[i].Start
	}
	return FrameRange{Start: offset, End: end, Prio: defaultFramePrio}
}

// releaseDelivered advances the release floor over what the peer holds —
// acknowledged, or reported rebuilt by its FEC decoder, which the sender
// never resends either — and lets go of the segments and frame tags below
// it; a finished stream the peer holds all of keeps nothing.
func (s *SendStream) releaseDelivered() {
	s.released = s.trimDelivered(chunk{offset: s.released, length: s.nextOffset - s.released}).offset
	floor := s.released
	if s.fin && floor == s.finOffset {
		floor = releaseAll
	}
	s.data.release(floor)
	drop := 0
	for drop < len(s.frames) && s.frames[drop].End <= s.released {
		drop++
	}
	s.frames = s.frames[drop:]
}

// hasNewData reports whether unsent data (or an unsent FIN) remains within
// the peer's flow control limit.
func (s *SendStream) hasNewData() bool {
	if s.reset {
		return false
	}
	if s.nextOffset < s.written && s.nextOffset < s.peerMaxData {
		return true
	}
	return s.fin && !s.finChunkSent
}

// hasRtx reports pending retransmission data.
func (s *SendStream) hasRtx() bool { return !s.reset && !s.rtx.Empty() }

// nextNewChunk carves the next new-data chunk of at most maxLen bytes.
// It returns ok=false when nothing can be sent (no data or flow blocked).
func (s *SendStream) nextNewChunk(maxLen int) (chunk, bool) {
	bufLen := s.written
	if s.nextOffset >= bufLen {
		if s.fin && !s.finChunkSent {
			s.finChunkSent = true
			return chunk{streamID: s.id, offset: s.nextOffset, length: 0, fin: true}, true
		}
		return chunk{}, false
	}
	if s.nextOffset >= s.peerMaxData {
		return chunk{}, false // flow control blocked
	}
	end := min64(bufLen, s.nextOffset+uint64(maxLen))
	end = min64(end, s.peerMaxData)
	// Keep chunks within one frame range so frame-priority re-injection
	// sees clean boundaries.
	fr := s.frameAt(s.nextOffset)
	if fr.End > s.nextOffset {
		end = min64(end, fr.End)
	}
	c := chunk{
		streamID:  s.id,
		offset:    s.nextOffset,
		length:    end - s.nextOffset,
		framePrio: fr.Prio,
	}
	s.nextOffset = end
	if s.fin && s.nextOffset == s.finOffset {
		c.fin = true
		s.finChunkSent = true
	}
	return c, true
}

// nextRtxChunk carves the next retransmission chunk of at most maxLen
// bytes, skipping parts that were acknowledged since the loss.
func (s *SendStream) nextRtxChunk(maxLen int) (chunk, bool) {
	for {
		r, ok := s.rtx.First()
		if !ok {
			return chunk{}, false
		}
		if s.acked.Contains(r.Start, min64(r.End, r.Start+1)) {
			// Front already acked via another copy: trim it.
			covered := s.acked.CoveredPrefix(r.Start)
			s.rtx.Subtract(r.Start, covered)
			continue
		}
		end := min64(r.End, r.Start+uint64(maxLen))
		c := chunk{
			streamID:  s.id,
			offset:    r.Start,
			length:    end - r.Start,
			framePrio: s.frameAt(r.Start).Prio,
			fin:       s.fin && end == s.finOffset,
		}
		s.rtx.Subtract(r.Start, end)
		return c, true
	}
}

// onChunkLost re-queues a lost chunk's unacked part for retransmission.
func (s *SendStream) onChunkLost(c chunk) {
	start, end := c.offset, c.offset+c.length
	// Drop the portions already acked (e.g. through a re-injected copy) or
	// rebuilt by the peer's FEC decoder (DESIGN.md §13 lane rules): queue
	// each stretch missing from acked, minus what recovered covers of it.
	for start < end {
		gap, gapEnd := s.acked.FirstMissing(start, end)
		for gap < gapEnd {
			lo, hi := s.recovered.FirstMissing(gap, gapEnd)
			s.rtx.Add(lo, hi)
			gap = hi
		}
		start = gapEnd
	}
	if c.fin && !s.finAcked {
		s.finChunkSent = false
	}
}

// onChunkAcked records acknowledgement of a chunk.
func (s *SendStream) onChunkAcked(c chunk) {
	if c.length > 0 {
		s.acked.Add(c.offset, c.offset+c.length)
		// Acked data needs neither retransmission nor re-injection.
		s.rtx.Subtract(c.offset, c.offset+c.length)
		s.dropDelivered(c.offset, c.offset+c.length)
	}
	if c.fin {
		s.finAcked = true
	}
	s.releaseDelivered()
}

// complete reports whether the peer acknowledged the FIN and holds every
// byte before it. A byte its FEC decoder rebuilt is held but never
// acknowledged — it is not sent again — so the test is the release floor,
// which advances over both (releaseDelivered).
func (s *SendStream) complete() bool {
	return s.finAcked && s.released == s.finOffset
}

// trimDelivered drops the prefix of a queued re-injection that the peer
// already holds, acknowledged or rebuilt by its FEC decoder.
func (s *SendStream) trimDelivered(ch chunk) chunk {
	for ch.length > 0 && (s.acked.Contains(ch.offset, ch.offset+1) ||
		s.recovered.Contains(ch.offset, ch.offset+1)) {
		covered := s.acked.CoveredPrefix(ch.offset)
		if rc := s.recovered.CoveredPrefix(ch.offset); rc > covered {
			covered = rc
		}
		trim := min64(covered-ch.offset, ch.length)
		ch.offset += trim
		ch.length -= trim
	}
	return ch
}

// wanted reports whether a re-injection copy is still worth sending: the
// peer lacks some of its bytes, or it carries the FIN.
func (s *SendStream) wanted(ch chunk) bool {
	ch = s.trimDelivered(ch)
	return ch.length > 0 || ch.fin
}

// queueReinj inserts a re-injection copy behind every queued entry of the
// same or a more urgent frame priority, which keeps reinjQ in (framePrio,
// enqueue order) without ever sorting it. Untagged data is the least urgent
// priority there is, so all but first-frame copies land at the tail.
func (s *SendStream) queueReinj(ch chunk) {
	i := len(s.reinjQ)
	for i > 0 && s.reinjQ[i-1].framePrio > ch.framePrio {
		i--
	}
	s.reinjQ = append(s.reinjQ, chunk{})
	copy(s.reinjQ[i+1:], s.reinjQ[i:])
	s.reinjQ[i] = ch
	if assert.Enabled {
		// Alg. 1 re-injects strictly in priority order; a disordered queue
		// would re-inject the wrong chunks first.
		for j := 1; j < len(s.reinjQ); j++ {
			assert.That(s.reinjQ[j-1].framePrio <= s.reinjQ[j].framePrio,
				"reinjection queue out of priority order at %d", j)
		}
	}
}
