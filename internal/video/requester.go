package video

import (
	"time"

	"repro/internal/transport"
)

// RequesterConfig tunes the MediaCacheService-style chunk fetcher.
type RequesterConfig struct {
	// ChunkSize is the range size per request (per stream).
	ChunkSize uint64
	// MaxConcurrent bounds simultaneous outstanding chunk streams; the
	// paper notes concurrent streams are used to pre-fetch when the
	// network is good (footnote 8).
	MaxConcurrent int
	// MaxBufferAhead pauses prefetching while the player already holds
	// this much content, like a real MediaCacheService (0 = unlimited).
	// The cap is what couples chunk completion times to the player's
	// buffer level — and hence to the QoE feedback loop.
	MaxBufferAhead time.Duration
}

// DefaultRequesterConfig uses 512 KiB chunks with two concurrent streams.
func DefaultRequesterConfig() RequesterConfig {
	return RequesterConfig{ChunkSize: 512 << 10, MaxConcurrent: 2}
}

// ChunkResult records one range request's completion.
type ChunkResult struct {
	Offset      uint64
	Length      uint64
	RequestedAt time.Duration
	CompletedAt time.Duration
}

// RCT returns the request completion time.
func (c ChunkResult) RCT() time.Duration { return c.CompletedAt - c.RequestedAt }

// Requester fetches a video over a client connection in chunked range
// requests and feeds the player. It delivers bytes to the player only in
// order (chunk boundaries respected), matching a real source pipe.
type Requester struct {
	conn   *transport.Conn
	cfg    RequesterConfig
	video  Video
	player *Player

	nextOffset uint64 // next chunk offset to request
	deliverPos uint64 // next byte offset to hand to the player
	chunks     map[uint64]*chunkState
	// order holds the chunks as first requested, in ascending offset, and
	// deliverIdx is the first one not yet handed to the player in full.
	order        []*chunkState
	deliverIdx   int
	outstanding  int
	Results      []ChunkResult
	started      bool
	onAllDone    func(now time.Duration)
	verifyErrors int
}

type chunkState struct {
	offset    uint64
	length    uint64
	streamID  uint64
	received  uint64
	result    ChunkResult
	completed bool
}

// NewRequester creates a requester for video v over conn, feeding player.
// It takes over the connection's OnStreamData callback; install it before
// starting the transfer.
func NewRequester(conn *transport.Conn, v Video, player *Player, cfg RequesterConfig) *Requester {
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = DefaultRequesterConfig().ChunkSize
	}
	if cfg.MaxConcurrent == 0 {
		cfg.MaxConcurrent = DefaultRequesterConfig().MaxConcurrent
	}
	return &Requester{
		conn:   conn,
		cfg:    cfg,
		video:  v,
		player: player,
		chunks: make(map[uint64]*chunkState),
	}
}

// SetOnComplete registers a callback fired when the last chunk completes.
func (r *Requester) SetOnComplete(fn func(now time.Duration)) { r.onAllDone = fn }

// VerifyErrors returns the count of content-integrity mismatches.
func (r *Requester) VerifyErrors() int { return r.verifyErrors }

// Start begins fetching at time now.
func (r *Requester) Start(now time.Duration) {
	if r.started {
		return
	}
	r.started = true
	r.fill(now)
}

// Poll re-evaluates prefetching; call it periodically when a buffer-ahead
// cap is configured, since playback consuming the buffer is what unblocks
// the next request.
func (r *Requester) Poll(now time.Duration) {
	if r.started {
		r.fill(now)
	}
}

// fill issues chunk requests up to the concurrency limit and buffer cap.
func (r *Requester) fill(now time.Duration) {
	if r.cfg.MaxBufferAhead > 0 && r.player != nil &&
		r.player.BufferedPlaytime() >= r.cfg.MaxBufferAhead {
		return
	}
	for r.outstanding < r.cfg.MaxConcurrent && r.nextOffset < r.video.Size {
		length := r.cfg.ChunkSize
		if r.nextOffset+length > r.video.Size {
			length = r.video.Size - r.nextOffset
		}
		cs := &chunkState{
			offset: r.nextOffset,
			length: length,
			result: ChunkResult{Offset: r.nextOffset, Length: length, RequestedAt: now},
		}
		r.order = append(r.order, cs)
		r.nextOffset += length
		r.outstanding++
		r.request(cs)
	}
}

// request asks for the chunk's whole range on a new stream.
func (r *Requester) request(cs *chunkState) {
	ss := r.conn.OpenStream()
	cs.streamID = ss.ID()
	cs.received = 0
	r.chunks[cs.streamID] = cs
	ss.Write([]byte(FormatRequest(Request{ID: r.video.ID, Offset: cs.offset, Length: cs.length})))
	ss.Close()
}

// OnStreamData is the transport callback for response data. A chunk whose
// stream the server reset is not complete: its range is requested again on a
// new stream, which keeps the chunk's slot.
// The player never gets a byte twice, since deliverInOrder hands it only
// what lies past what it already has.
func (r *Requester) OnStreamData(now time.Duration, rs *transport.RecvStream, data []byte, fin bool) {
	cs := r.chunks[rs.ID()]
	if cs == nil {
		return
	}
	if rs.IsReset() {
		delete(r.chunks, rs.ID())
		if !cs.completed {
			r.request(cs)
		}
		return
	}
	if len(data) > 0 {
		if !contentMatches(r.video.ID, cs.offset+cs.received, data) {
			r.verifyErrors++
		}
		cs.received += uint64(len(data))
	}
	if fin && !cs.completed {
		cs.completed = true
		cs.result.CompletedAt = now
		r.Results = append(r.Results, cs.result)
		r.outstanding--
		r.fill(now)
	}
	r.deliverInOrder(now)
	if r.player != nil {
		r.player.Advance(now)
	}
	if r.allDone() && r.onAllDone != nil {
		fn := r.onAllDone
		r.onAllDone = nil
		fn(now)
	}
}

// deliverInOrder pushes contiguous received bytes to the player. Chunks
// cover disjoint ascending ranges, so one pass in offset order finds every
// contiguous extension; it starts at the first chunk not yet delivered in
// full and stops at the first one still missing bytes, since nothing behind
// a gap can be contiguous.
func (r *Requester) deliverInOrder(now time.Duration) {
	for ; r.deliverIdx < len(r.order); r.deliverIdx++ {
		cs := r.order[r.deliverIdx]
		if cs.offset <= r.deliverPos && r.deliverPos < cs.offset+cs.received {
			n := cs.offset + cs.received - r.deliverPos
			r.deliverPos += n
			if r.player != nil {
				r.player.OnData(now, n)
			}
		}
		if r.deliverPos < cs.offset+cs.length {
			return
		}
	}
}

// allDone reports whether every chunk completed.
func (r *Requester) allDone() bool {
	if r.nextOffset < r.video.Size {
		return false
	}
	for _, cs := range r.order {
		if !cs.completed {
			return false
		}
	}
	return true
}

// Done reports fetch completion.
func (r *Requester) Done() bool { return r.started && r.allDone() }
