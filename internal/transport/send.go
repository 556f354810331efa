package transport

import (
	"time"

	"repro/internal/assert"
	"repro/internal/cc"
	"repro/internal/recovery"
	"repro/internal/wire"
)

// shortHeaderOverhead estimates header + AEAD overhead of a 1-RTT packet.
func (c *Conn) shortHeaderOverhead() int {
	return 1 + cidLen + 4 + 16
}

// wakeSend requests a send pass. Safe to call from any handler; the pass
// runs inline unless we are already inside one, or the connection is held,
// when Release runs it.
func (c *Conn) wakeSend() {
	if c.inSend || c.state >= stateClosing {
		return
	}
	now := c.env.Now()
	if c.state == stateEstablished {
		c.maybeSend(now)
		c.rearmTimer()
	}
}

// maybeSend drains acknowledgements and data while congestion windows and
// data allow. On a held connection it only notes the pass for Release.
func (c *Conn) maybeSend(now time.Duration) {
	if c.held {
		c.passOwed = true
		return
	}
	if c.inSend || c.state != stateEstablished || c.txSealer == nil {
		return
	}
	// Every packet sealed during the pass waits on its path's pending batch
	// (emit, DESIGN.md §16).
	c.inSend = true
	defer func() { c.inSend = false }()

	c.updatePathHealth(now)
	c.flushAcks(now, false)

	for i := 0; i < 4096; i++ { // safety bound per pass
		if !c.sendOnePacket(now) {
			break
		}
	}
	if c.fecEnabled && c.fecEnc.active {
		// Data ran out mid-window: protect the tail now (the whole point on
		// a lossy path) and give the queued repair frames a ride out.
		c.fecTailFlush(now)
		for i := 0; i < 64; i++ {
			if !c.sendOnePacket(now) {
				break
			}
		}
	}
	c.sendCtrlBypass(now)
	c.flushBatches(now)
}

// sendBatchSize is a send pass's flush threshold: a path whose pending batch
// reaches it is handed to the sender at once, mid-pass.
const sendBatchSize = 16

// emit seals frames into a 1-RTT packet on p, enters meta into p's ledger
// when the packet is ack-eliciting, hands the packet to the network, counts
// it and traces it as kind; it returns the packet's size. Every 1-RTT packet
// leaves through here, in one discipline: inside a send pass it joins p's
// pending batch, flushed at pass end or once it holds sendBatchSize packets;
// outside one (the timer's overdue ACKs, close resends) it leaves at once.
// The seal buffer is the top of the free list, which a pending packet holds
// until its batch is flushed.
func (c *Conn) emit(now time.Duration, p *Path, frames []wire.Frame, meta *packetMeta, kind string) int {
	// One buffer per pending-batch high-water mark, at most paths × sendBatchSize.
	if len(c.sealFree) == 0 {
		c.sealFree = append(c.sealFree, make([]byte, 0, cc.MaxDatagramSize))
	}
	top := len(c.sealFree) - 1
	pn := p.Space.NextPN()
	pkt := sealShortInto(c.sealFree[top][:0], c.txSealer, p.DCID, uint32(p.ID), pn, p.Space.LargestAcked(), frames)
	if meta != nil {
		recordSent(now, p, meta, pn, len(pkt))
	}
	if c.inSend {
		c.sealFree = c.sealFree[:top]
		if len(p.batchPend) == 0 {
			c.batchOrder = append(c.batchOrder, p)
		}
		p.batchPend = append(p.batchPend, pkt)
		if len(p.batchPend) >= sendBatchSize {
			c.flushBatchPath(now, p)
		}
	} else {
		c.sealFree[top] = pkt[:0]
		c.sendOne(p.NetIdx, pkt)
	}
	p.SentPackets++
	p.SentBytes += uint64(len(pkt))
	c.stats.SentPackets++
	c.stats.SentBytes += uint64(len(pkt))
	c.tr.PacketSent(now, p.ID, pn, len(pkt), kind)
	return len(pkt)
}

// sendOne hands a single sealed packet to the sender as a batch of one. It
// is the path for packets outside a send pass — Initials, the timer's overdue
// ACKs and closing-state resends — and, not being a flush of accumulated
// packets, emits no batch_flush event.
func (c *Conn) sendOne(netIdx int, pkt []byte) {
	c.oneBatch[0] = pkt
	c.sender.SendBatch(netIdx, c.oneBatch[:])
	c.oneBatch[0] = nil
}

// flushBatchPath sends p's pending batch in one SendBatch call. The sender
// borrows the packet buffers for the call (DatagramSender's ownership note);
// then they go back on the seal free list.
func (c *Conn) flushBatchPath(now time.Duration, p *Path) {
	if len(p.batchPend) == 0 {
		return
	}
	n := len(p.batchPend)
	c.sender.SendBatch(p.NetIdx, p.batchPend)
	c.tr.BatchFlush(now, p.ID, n)
	for i, pkt := range p.batchPend {
		c.sealFree = append(c.sealFree, pkt[:0])
		p.batchPend[i] = nil
	}
	p.batchPend = p.batchPend[:0]
}

// flushBatches drains every path's pending batch in first-touch order —
// the order the first packet for each path was sealed in.
func (c *Conn) flushBatches(now time.Duration) {
	for i, p := range c.batchOrder {
		c.flushBatchPath(now, p)
		c.batchOrder[i] = nil
	}
	c.batchOrder = c.batchOrder[:0]
}

// sendCtrlBypass flushes queued unpinned control frames when every path is
// congestion-blocked. Path management (PATH_STATUS, MAX_DATA, CID issuance)
// must not deadlock behind a stalled window: these frames are tiny and, as
// with PTO probes, may exceed the congestion window.
func (c *Conn) sendCtrlBypass(now time.Duration) {
	if len(c.ctrlQ) == 0 || len(c.usableSendPaths()) > 0 {
		return
	}
	// Prefer a healthy active path; fall back to any active one.
	var p *Path
	for _, id := range c.pathOrder {
		cand := c.paths[id]
		if cand.State != PathActive || cand.DCID == nil {
			continue
		}
		if p == nil || (!cand.suspect && p.suspect) ||
			(cand.suspect == p.suspect && cand.RTT.Smoothed() < p.RTT.Smoothed()) {
			p = cand
		}
	}
	if p == nil {
		return
	}
	budget := cc.MaxDatagramSize - c.shortHeaderOverhead()
	frames, meta := c.appendCtrl(p, c.sendFrames[:0], nil, &budget)
	c.sendFrames = frames[:0]
	if len(frames) == 0 {
		return
	}
	c.emit(now, p, frames, meta, "ctrl")
}

// updatePathHealth demotes paths that have gone silent while another path
// keeps receiving — the receive-side counterpart of PTO-based suspicion,
// needed by endpoints (like a video client) that carry no in-flight data of
// their own. A one-off PING is queued on a freshly suspected path so it can
// prove itself alive again.
func (c *Conn) updatePathHealth(now time.Duration) {
	if !c.multipath || len(c.pathOrder) < 2 || c.cfg.DisablePathHealth {
		return
	}
	var newest time.Duration
	for _, id := range c.pathOrder {
		if t := pathProgress(c.paths[id]); t > newest {
			newest = t
		}
	}
	for _, id := range c.pathOrder {
		p := c.paths[id]
		prog := pathProgress(p)
		if p.State != PathActive || p.suspect || prog == 0 {
			continue
		}
		threshold := 3 * p.RTT.PTO()
		if threshold < 300*time.Millisecond {
			threshold = 300 * time.Millisecond
		}
		if threshold > time.Second {
			threshold = time.Second
		}
		if newest > prog && now-prog > threshold {
			p.suspect = true
			c.tr.PathStateChanged(now, p.ID, p.State.String(), "recv-stale")
			c.queueCtrl(&wire.PingFrame{}, int64(p.ID), false)
		}
	}
}

// usableSendPaths returns validated paths with a destination CID and
// congestion window space, in pathOrder order (the selector's tie-break
// order — never re-sorted), into the sendablePaths scratch. The result is
// valid until the next call.
func (c *Conn) usableSendPaths() []*Path {
	out := c.sendablePaths[:0]
	for _, id := range c.pathOrder {
		p := c.paths[id]
		if p.Usable() && p.DCID != nil && p.CC.CanSend(cc.MaxDatagramSize) {
			out = append(out, p)
		}
	}
	c.sendablePaths = out
	return out
}

// sendOnePacket builds and transmits at most one data packet. It returns
// false when nothing further can be sent.
func (c *Conn) sendOnePacket(now time.Duration) bool {
	// Control frames pinned to probing paths (PATH_CHALLENGE/RESPONSE)
	// must be able to leave before validation completes.
	if c.sendProbePacket(now) {
		return true
	}
	candidates := c.usableSendPaths()
	if len(candidates) == 0 {
		return false
	}
	p := MinRTTSelector(now, candidates)
	if p == nil {
		return false
	}
	budget := cc.MaxDatagramSize - c.shortHeaderOverhead()
	frames := c.sendFrames[:0]
	c.sfUsed = 0
	c.gather = c.gather[:0]

	// Pending acks whose policy path is p ride along, but only on a packet
	// that carries something else: a lone ACK leaves from flushAcks when it
	// is due (DESIGN.md §20). Until the packet is known to leave they are
	// provisional.
	frames = c.appendAcksFor(now, p, frames, &budget)
	acks := len(frames)

	// Control frames: pinned to p or unpinned. meta stays nil until the
	// packet carries an ack-eliciting frame: a pass that finds nothing to
	// send, or only acks, touches no record (DESIGN.md §18).
	frames, meta := c.appendCtrl(p, frames, nil, &budget)

	// Stream data.
	reinjBytes := 0
	for budget > 8 {
		var ch chunk
		var ok bool
		if c.pullHook != nil {
			ch, ok = c.pullHook(now, p, budget-8)
		} else {
			ch, ok = c.pullChunk(now, p, budget-8)
		}
		if !ok {
			break
		}
		// Every chunk is cut from a stream in sendStreams: one leaves it
		// retired, and nothing cuts from a retired stream (maybeForget).
		s := c.sendStreams[ch.streamID]
		assert.That(s != nil, "chunk cut from a forgotten stream")
		s.inFlight++
		sf := c.nextStreamFrame()
		*sf = wire.StreamFrame{
			StreamID: ch.streamID,
			Offset:   ch.offset,
			Fin:      ch.fin,
		}
		if ch.length > 0 {
			assert.That(ch.offset >= s.released, "chunk read below the stream's release floor")
			sf.Data = s.data.span(ch.offset, ch.length)
			// A chunk that straddles two segments is gathered into the
			// connection's scratch, so packetisation never sees the seam.
			if n := len(c.gather); uint64(len(sf.Data)) < ch.length {
				c.gather = s.data.appendTo(c.gather, ch.offset, ch.length)
				sf.Data = c.gather[n:]
			}
		}
		// frames aliases the conn's sendFrames scratch (threaded through
		// appendAcksFor and appendCtrl), whose capacity is reserved at construction.
		frames = append(frames, sf)
		if meta == nil {
			meta = packetRecord()
		}
		meta.chunks = append(meta.chunks, ch)
		budget -= sf.Len()
		switch {
		case ch.reinjection:
			reinjBytes += int(ch.length)
			c.stats.ReinjectedBytesSent += ch.length
			c.tr.ReinjectSend(now, p.ID, ch.streamID, ch.offset, int(ch.length))
		case ch.isNew:
			c.stats.StreamBytesSent += ch.length
			if c.fecEnabled {
				c.fecAddSource(now, s, ch)
			}
		default:
			c.stats.RtxBytesSent += ch.length
		}
	}

	c.sendFrames = frames[:0]
	send := len(frames) > acks
	c.settleAcks(send)
	if !send {
		return false
	}
	size := c.emit(now, p, frames, meta, "1rtt")
	if meta != nil {
		// Only these packets count toward the congestion window: probe and
		// control-bypass packets enter the ledger but not the window.
		p.CC.OnPacketSent(now, size)
	}
	p.ReinjectBytes += uint64(reinjBytes)
	return true
}

// sendProbePacket sends pending path-pinned control frames for paths not
// yet usable (validation traffic). Returns true if a packet was sent.
func (c *Conn) sendProbePacket(now time.Duration) bool {
	for i, item := range c.ctrlQ {
		if item.pathID < 0 {
			continue
		}
		p := c.paths[uint64(item.pathID)]
		if p == nil || p.DCID == nil || p.State == PathClosed {
			continue
		}
		frames := append(c.sendFrames[:0], item.frame)
		c.sendFrames = frames[:0]
		c.ctrlQ = append(c.ctrlQ[:i], c.ctrlQ[i+1:]...)
		var meta *packetMeta
		if wire.AckEliciting(item.frame) {
			meta = packetRecord()
			if item.reliable {
				meta.ctrl = append(meta.ctrl, item.frame)
			}
		}
		c.emit(now, p, frames, meta, "probe")
		return true
	}
	return false
}

// appendCtrl moves queued control frames into the packet being built for p.
// meta is the packet's record, nil while it carries nothing ack-eliciting;
// the first such frame acquires it.
func (c *Conn) appendCtrl(p *Path, frames []wire.Frame, meta *packetMeta, budget *int) ([]wire.Frame, *packetMeta) {
	// Compact kept items in place (w trails the read index) so draining the
	// queue never allocates a replacement slice.
	w := 0
	for _, item := range c.ctrlQ {
		if item.pathID >= 0 && uint64(item.pathID) != p.ID {
			c.ctrlQ[w] = item
			w++
			continue
		}
		l := item.frame.Len()
		if l > *budget {
			c.ctrlQ[w] = item
			w++
			continue
		}
		frames = append(frames, item.frame)
		*budget -= l
		if wire.AckEliciting(item.frame) {
			if meta == nil {
				meta = packetRecord()
			}
			// Only a tracked packet can be found lost, so only an
			// ack-eliciting frame can be re-queued.
			if item.reliable {
				meta.ctrl = append(meta.ctrl, item.frame)
			}
		}
	}
	for i := w; i < len(c.ctrlQ); i++ {
		c.ctrlQ[i] = ctrlItem{} // release frame references
	}
	c.ctrlQ = c.ctrlQ[:w]
	return frames, meta
}

// packetRecord acquires the record of the ack-eliciting packet being built: a
// recovery.SentPacket from the process-wide record pool together with the
// packetMeta it carries and the chunk and control-frame storage of that, all
// blank (DESIGN.md §18). The caller fills it in and hands it to recordSent.
func packetRecord() *packetMeta {
	sp := recovery.Acquire()
	meta, _ := sp.Meta.(*packetMeta)
	if meta == nil {
		meta = &packetMeta{sp: sp}
		sp.Meta = meta
	}
	meta.chunks = meta.chunks[:0]
	clear(meta.ctrl) // release frame references
	meta.ctrl = meta.ctrl[:0]
	meta.reinjected = false
	return meta
}

// recordSent enters the ack-eliciting packet just sealed as pn into p's
// ledger.
func recordSent(now time.Duration, p *Path, meta *packetMeta, pn uint64, size int) {
	sp := meta.sp
	sp.PN, sp.SentAt, sp.Bytes, sp.AckEliciting = pn, now, size, true
	p.Space.OnPacketSent(sp)
}

// nextStreamFrame hands out a reusable STREAM frame from the connection's
// scratch pool, growing it on first use. Every field of the returned frame
// is overwritten by the caller; the frame is only referenced until the
// packet holding it is serialized, so reuse across packets is safe.
func (c *Conn) nextStreamFrame() *wire.StreamFrame {
	if c.sfUsed == len(c.sfScratch) {
		c.sfScratch = append(c.sfScratch, &wire.StreamFrame{})
	}
	sf := c.sfScratch[c.sfUsed]
	c.sfUsed++
	return sf
}

// streamsInOrder returns the send streams that can still send, sorted by
// (priority, ID) — the paper's early-stream-first order. The order is kept in
// place, never rebuilt: Stream inserts a new stream, SetPriority moves one and
// retireStream cuts one out, each by binary search. (priority, ID) is a total
// order — IDs are unique.
func (c *Conn) streamsInOrder() []*SendStream {
	if assert.Enabled {
		for i := 1; i < len(c.streamOrder); i++ {
			assert.That(sendsBefore(c.streamOrder[i-1], c.streamOrder[i]),
				"stream order broken at %d", i)
		}
	}
	return c.streamOrder
}

// sendsBefore reports whether a precedes b in (priority, ID) order.
func sendsBefore(a, b *SendStream) bool {
	return a.prio < b.prio || (a.prio == b.prio && a.id < b.id)
}

// orderIndex returns s's place in streamOrder: the first stream not before it.
func (c *Conn) orderIndex(s *SendStream) int {
	lo, hi := 0, len(c.streamOrder)
	for lo < hi {
		if mid := (lo + hi) / 2; sendsBefore(c.streamOrder[mid], s) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insertInOrder puts s at its place in streamOrder. A new stream's priority
// is its ID, above every ID before it, so this is an append.
func (c *Conn) insertInOrder(s *SendStream) {
	i := c.orderIndex(s)
	c.streamOrder = append(c.streamOrder, nil)
	copy(c.streamOrder[i+1:], c.streamOrder[i:])
	c.streamOrder[i] = s
}

// dropFromOrder cuts s out of streamOrder and reports whether it was there.
func (c *Conn) dropFromOrder(s *SendStream) bool {
	i, last := c.orderIndex(s), len(c.streamOrder)-1
	if i > last || c.streamOrder[i] != s {
		return false
	}
	copy(c.streamOrder[i:], c.streamOrder[i+1:])
	c.streamOrder[last] = nil
	c.streamOrder = c.streamOrder[:last]
	return true
}

// maxDeliverTime computes Eq. 1: max over paths with unacked packets of
// RTT + δ.
func (c *Conn) maxDeliverTime() time.Duration {
	var m time.Duration
	for _, id := range c.pathOrder {
		p := c.paths[id]
		if !p.Space.HasUnacked() {
			continue
		}
		if dt := p.DeliverTime(); dt > m {
			m = dt
		}
	}
	return m
}

// reinjectionAllowed evaluates mode and gate.
func (c *Conn) reinjectionAllowed(now time.Duration) bool {
	if c.cfg.ReinjectionMode == ReinjectNone {
		return false
	}
	if len(c.pathOrder) < 2 {
		return false // nothing to decouple
	}
	if c.cfg.ReinjectionGate == nil {
		return true
	}
	return c.cfg.ReinjectionGate(now, c.maxDeliverTime())
}

// isFastestPath reports whether p has the lowest expected delivery time of
// the usable paths. Re-injected copies only ride the fastest path — a copy
// on a slower path cannot beat the original and just burns its capacity
// (Sec 5.1: "the re-injected copy can go through the fast path").
func (c *Conn) isFastestPath(p *Path) bool {
	for _, id := range c.pathOrder {
		o := c.paths[id]
		if o == p || !o.Usable() {
			continue
		}
		if o.DeliverTime() < p.DeliverTime() {
			return false
		}
	}
	return true
}

// pullChunk returns the next stream chunk to send on path p, at most
// maxLen bytes, implementing the re-injection modes of Fig 4.
func (c *Conn) pullChunk(now time.Duration, p *Path, maxLen int) (chunk, bool) {
	if maxLen <= 0 {
		return chunk{}, false
	}
	mode := c.cfg.ReinjectionMode
	allowReinj := c.reinjectionAllowed(now) && c.isFastestPath(p)
	streams := c.streamsInOrder()
	for _, s := range streams {
		// Loss-triggered retransmissions always go first.
		if s.hasRtx() {
			if ch, ok := s.nextRtxChunk(maxLen); ok {
				return ch, true
			}
		}
		if mode == ReinjectFramePriority {
			if ch, ok := c.pullFramePriority(s, p, maxLen, allowReinj); ok {
				return ch, true
			}
			continue
		}
		if ch, ok := c.pullNew(s, maxLen); ok {
			return ch, true
		}
		if mode == ReinjectStreamPriority && allowReinj {
			c.scanReinjections(s)
			if i := ridable(s.reinjQ, p); i >= 0 {
				return c.takeReinj(&s.reinjQ, i, maxLen), true
			}
		}
	}
	if mode == ReinjectAppending && allowReinj {
		// No stream has new data left: the copies trail all of it, taken
		// from the streams' own queues in stream order (Fig 4a).
		for _, s := range streams {
			c.scanReinjections(s)
		}
		for _, s := range streams {
			if i := ridable(s.reinjQ, p); i >= 0 {
				return c.takeReinj(&s.reinjQ, i, maxLen), true
			}
		}
	}
	return chunk{}, false
}

// pullNew carves new data respecting connection flow control.
func (c *Conn) pullNew(s *SendStream, maxLen int) (chunk, bool) {
	if !s.hasNewData() {
		return chunk{}, false
	}
	connRemaining := uint64(0)
	if c.peerMaxData > c.connSent {
		connRemaining = c.peerMaxData - c.connSent
	}
	if connRemaining == 0 {
		return chunk{}, false
	}
	limit := maxLen
	if uint64(limit) > connRemaining {
		limit = int(connRemaining)
	}
	ch, ok := s.nextNewChunk(limit)
	if !ok {
		return chunk{}, false
	}
	ch.isNew = true
	c.connSent += ch.length
	return ch, true
}

// pullFramePriority implements Fig 4(c): within a stream, a re-injection of
// a higher-priority video frame jumps ahead of unsent data of lower-priority
// frames; the rest trail the stream's new data.
func (c *Conn) pullFramePriority(s *SendStream, p *Path, maxLen int, allowReinj bool) (chunk, bool) {
	next := -1 // the queue is in priority order: the first copy p may carry is the most urgent
	if allowReinj {
		c.scanReinjections(s)
		next = ridable(s.reinjQ, p)
		nextFramePrio := defaultFramePrio
		if s.hasNewData() {
			nextFramePrio = s.frameAt(s.nextOffset).Prio
		}
		if next >= 0 && s.reinjQ[next].framePrio < nextFramePrio {
			return c.takeReinj(&s.reinjQ, next, maxLen), true
		}
	}
	if ch, ok := c.pullNew(s, maxLen); ok {
		return ch, true
	}
	if next >= 0 {
		return c.takeReinj(&s.reinjQ, next, maxLen), true
	}
	return chunk{}, false
}

// scanReinjections queues re-injection copies of stream s's chunks in
// packets still in flight, paths in pathOrder and packet numbers ascending.
// A packet is examined for a stream once, by the first scan after it was
// sent (s.scanned holds the per-path cursor): whatever excludes a chunk then
// — delivered, FEC-covered, its packet resolved or already duplicated —
// still excludes it at any later scan, so looking again would find nothing.
func (c *Conn) scanReinjections(s *SendStream) {
	if s.reset {
		return
	}
	for i, id := range c.pathOrder {
		src := c.paths[id].Space
		if i == len(s.scanned) {
			s.scanned = append(s.scanned, 0)
		}
		from, next := s.scanned[i], src.PeekPN()
		if from == next {
			continue
		}
		s.scanned[i] = next
		for _, sp := range src.SentFrom(from) {
			c.reinjExamined++
			meta, ok := sp.Meta.(*packetMeta)
			if !ok || meta.reinjected || !sp.InFlight() {
				continue
			}
			for _, ch := range meta.chunks {
				if ch.streamID != s.id || (ch.length == 0 && !ch.fin) {
					continue
				}
				assert.That(ch.offset+ch.length <= s.nextOffset, "chunk in flight beyond the stream's send offset")
				// Skip what the peer holds, and ranges the FEC lane owns:
				// proactively protected at flush time (the QoE gate chose
				// FEC over re-injection) or already rebuilt by the peer's
				// decoder (DESIGN.md §13 lane rules).
				if ch.length > 0 && (s.acked.Contains(ch.offset, ch.offset+ch.length) ||
					s.fecCovered.Contains(ch.offset, ch.offset+ch.length) ||
					s.recovered.Contains(ch.offset, ch.offset+ch.length)) {
					continue
				}
				ch.reinjection = true
				ch.isNew = false
				ch.originPath = id
				meta.reinjected = true
				// Acks and FEC recovery may cover between them what neither
				// covers alone: the packet counts as duplicated, the copy
				// is not worth queueing.
				if s.wanted(ch) {
					s.queueReinj(ch)
				}
			}
		}
	}
}

// ridable returns the index of the first copy in q that may ride p — one
// whose original travelled on another path — or -1.
func ridable(q []chunk, p *Path) int {
	for i := range q {
		if q[i].originPath != p.ID {
			return i
		}
	}
	return -1
}

// takeReinj takes the queued copy at index i, cut to maxLen bytes; what is
// left of it stays queued in its place.
func (c *Conn) takeReinj(q *[]chunk, i int, maxLen int) chunk {
	// Part of it may have been delivered since it was queued; all of it
	// cannot have been, or dropDelivered would have removed it.
	s := c.sendStreams[(*q)[i].streamID]
	ch := s.trimDelivered((*q)[i])
	assert.That(ch.length > 0 || ch.fin, "fully delivered re-injection left in the queue")
	var rest chunk
	if ch.length > uint64(maxLen) {
		rest = ch
		rest.offset += uint64(maxLen)
		rest.length -= uint64(maxLen)
		rest = s.trimDelivered(rest)
		ch.length = uint64(maxLen)
		ch.fin = false
	}
	if rest.length > 0 || rest.fin {
		(*q)[i] = rest
	} else {
		copy((*q)[i:], (*q)[i+1:])
		*q = (*q)[:len(*q)-1]
	}
	return ch
}

// dropDelivered removes queued copies of s's data that [start, end), newly
// acknowledged or FEC-recovered, completed: the peer holds all of their
// bytes, so sending them could only waste the fast path. The queue is
// compacted in place.
func (s *SendStream) dropDelivered(start, end uint64) {
	w := 0
	for i := range s.reinjQ {
		e := &s.reinjQ[i]
		if e.offset < end && start < e.offset+e.length && !s.wanted(*e) {
			continue
		}
		if w != i {
			s.reinjQ[w] = *e
		}
		w++
	}
	s.reinjQ = s.reinjQ[:w]
}

// dropReinjections discards every queued copy of s's data at Reset.
func (c *Conn) dropReinjections(s *SendStream) {
	now := c.env.Now()
	for _, e := range s.reinjQ {
		c.tr.ReinjectCancel(now, s.id, e.offset, int(e.length), "reset")
	}
	s.reinjQ = nil
	c.retireStream(s)
}

// chunkResolved notes that a packet carrying one of s's chunks was acked or
// declared lost.
func (c *Conn) chunkResolved(s *SendStream) {
	s.inFlight--
	assert.That(s.inFlight >= 0, "more chunks resolved than were sent")
	c.maybeForget(s)
}

// maybeForget retires s once it can never send again — finished and held
// by the peer in full, nothing in flight for a scan to find, no copy queued
// — and forgets a retired stream once nothing of it is in flight: no packet
// or queue can name it again (DESIGN.md §17).
func (c *Conn) maybeForget(s *SendStream) {
	if s.inFlight > 0 {
		return
	}
	if !s.retired {
		if len(s.reinjQ) > 0 || !s.complete() {
			return
		}
		c.retireStream(s)
	}
	assert.That(len(s.reinjQ) == 0, "stream forgotten with copies queued")
	delete(c.sendStreams, s.id)
	c.sendClosed.add(s.id)
}

// retireStream takes s out of the stream order, so pullChunk walks only
// streams that can still send. A retired stream holds no segments: it was
// delivered in full or reset, and either released them.
func (c *Conn) retireStream(s *SendStream) {
	s.retired = true
	c.dropFromOrder(s)
}

// --- Acknowledgements ---

// ackSendPath picks the path to carry an ACK_MP for packets received on
// `on`, per the configured policy (Fig 8).
func (c *Conn) ackSendPath(on *Path) *Path {
	if c.cfg.AckPolicy == AckOriginalPath || !c.multipath {
		if on.Usable() || on.State == PathProbing {
			return on
		}
	}
	var best *Path
	for _, id := range c.pathOrder {
		p := c.paths[id]
		if !p.Usable() || p.DCID == nil {
			continue
		}
		if best == nil || p.RTT.Smoothed() < best.RTT.Smoothed() {
			best = p
		}
	}
	if best == nil {
		return on
	}
	return best
}

// buildAckFrame builds the ACK or ACK_MP frame for a path's receive state,
// attaching QoE feedback when configured.
func (c *Conn) buildAckFrame(now time.Duration, p *Path) wire.Frame {
	ranges := p.buildAckRanges(32)
	if len(ranges) == 0 {
		return nil
	}
	delay := now - p.largestRecvTime
	if delay < 0 {
		delay = 0
	}
	assert.NonNegDur(delay, "ack delay")
	if assert.Enabled {
		// The wire encoding needs ranges descending and disjoint; anything
		// else silently corrupts gap arithmetic on the peer.
		for i, r := range ranges {
			assert.That(r.Smallest <= r.Largest, "ack range %d inverted", i)
			if i > 0 {
				assert.That(r.Largest < ranges[i-1].Smallest,
					"ack ranges %d,%d not descending/disjoint", i-1, i)
			}
		}
	}
	// The frame structs are per-path scratch, overwritten wholesale each
	// build; the caller serializes them before the next build for this path.
	if !c.multipath {
		p.ackScratch = wire.AckFrame{Ranges: ranges, AckDelay: delay}
		return &p.ackScratch
	}
	f := &p.ackMPScratch
	*f = wire.AckMPFrame{PathID: p.ID, Ranges: ranges, AckDelay: delay}
	if c.cfg.QoEProvider != nil {
		if sig := c.cfg.QoEProvider(); !sig.Zero() {
			f.HasQoE = true
			f.QoE = sig
		}
	}
	return f
}

// flushAcks emits the pending acknowledgements that are due (Path.ackDue) as
// ack-only packets; the rest wait for a packet to ride on or for their delay
// to run out. If force is true, every pending one leaves (used on ack-delay
// expiry).
func (c *Conn) flushAcks(now time.Duration, force bool) {
	if c.txSealer == nil {
		return
	}
	for _, id := range c.pathOrder {
		p := c.paths[id]
		if !p.ackQueued || !force && !p.ackDue(now, c.cfg.MaxAckDelay) {
			continue
		}
		f := c.buildAckFrame(now, p)
		if f == nil {
			p.ackSent()
			continue
		}
		carrier := c.ackSendPath(p)
		if carrier == nil || carrier.DCID == nil {
			continue
		}
		frames := append(c.sendFrames[:0], f)
		c.sendFrames = frames[:0]
		c.emit(now, carrier, frames, nil, "ack")
		p.ackSent()
	}
}

// appendAcksFor puts pending acks whose policy path is p into the packet being
// built for p, marking each riding; settleAcks decides whether they left.
func (c *Conn) appendAcksFor(now time.Duration, p *Path, frames []wire.Frame, budget *int) []wire.Frame {
	for _, id := range c.pathOrder {
		rp := c.paths[id]
		if !rp.ackQueued {
			continue
		}
		if c.ackSendPath(rp) != p {
			continue
		}
		f := c.buildAckFrame(now, rp)
		if f == nil || f.Len() > *budget {
			continue
		}
		frames = append(frames, f)
		*budget -= f.Len()
		rp.ackRiding = true
	}
	return frames
}

// settleAcks ends the ride appendAcksFor began: the acks went out with the
// packet (sent) or stay queued (the packet carried nothing else).
func (c *Conn) settleAcks(sent bool) {
	for _, id := range c.pathOrder {
		rp := c.paths[id]
		if rp.ackRiding {
			rp.ackRiding = false
			if sent {
				rp.ackSent()
			}
		}
	}
}

// --- Timers ---

// cancelTimer stops the pending timer if any.
func (c *Conn) cancelTimer() {
	c.timerDue = 0
	if c.timerCancel != nil {
		c.timerCancel()
		c.timerCancel = nil
	}
}

// nextDeadline computes the earliest pending deadline.
func (c *Conn) nextDeadline() time.Duration {
	if c.state == stateClosing || c.state == stateDraining {
		// Only the drain deadline matters; loss recovery is over.
		return c.drainDeadline
	}
	var deadline time.Duration
	if c.cfg.IdleTimeout > 0 {
		deadline = earlierDeadline(deadline, c.lastRecvActivity+c.cfg.IdleTimeout)
	}
	if c.state == stateHandshake || !c.handshakeDone {
		if c.initSpace.HasUnacked() {
			deadline = earlierDeadline(deadline, c.initSpace.PTODeadline())
		}
	}
	if c.state == stateEstablished {
		deadline = earlierDeadline(deadline, c.secondaryAt)
		for _, id := range c.pathOrder {
			p := c.paths[id]
			deadline = earlierDeadline(deadline, p.Space.LossTime())
			deadline = earlierDeadline(deadline, p.Space.PTODeadline())
			if p.ackQueued {
				deadline = earlierDeadline(deadline, p.largestRecvTime+c.cfg.MaxAckDelay)
			}
		}
	}
	return deadline
}

// rearmTimer records the deadline the connection wants to be woken at and
// touches the Env's timer only when it has to. Two deadlines are kept apart
// (DESIGN.md §19): timerDue is when the timer body must run next, timerAt is
// when the timer the Env holds will fire. Almost every packet handled moves
// the deadline later (the idle timeout, a PTO re-based on a newer packet, a
// delayed ACK's deadline on a newer packet), and a timer that fires early
// costs one onTimer call that re-schedules itself, so a pending timer at or
// before timerDue is left alone. Only no timer, or a pending one after the
// deadline, costs a Schedule (and a cancel). On a held connection the re-arm
// waits for Release, which runs it after the pass it owes.
func (c *Conn) rearmTimer() {
	if c.held {
		c.passOwed = true
		return
	}
	if c.state == stateClosed {
		c.cancelTimer()
		return
	}
	deadline := c.nextDeadline()
	if deadline == 0 {
		c.cancelTimer()
		return
	}
	if now := c.env.Now(); deadline <= now {
		// Never schedule in the past: a handler that could not clear its
		// deadline (e.g. an ack with no usable carrier path) must not
		// spin the event loop at a frozen instant.
		deadline = now + cc.Granularity
	}
	c.timerDue = deadline
	if c.timerCancel != nil {
		if c.timerAt <= deadline {
			return
		}
		c.timerCancel()
	}
	c.scheduleTimer(deadline)
}

// scheduleTimer hands the Env a timer for at; none may be pending.
func (c *Conn) scheduleTimer(at time.Duration) {
	c.timerAt = at
	c.timerCancel = c.env.Schedule(at, c.onTimerFn)
}

// onTimer handles drain, idle, loss, PTO, keepalive, delayed-ack and
// secondary-path bring-up deadlines.
func (c *Conn) onTimer(now time.Duration) {
	c.timerCancel = nil
	if c.timerDue == 0 {
		return
	}
	if now < c.timerDue {
		// Woken early: the deadline moved later after this timer was set.
		// Nothing is due, so no protocol code runs at an instant it would
		// not have run at with a timer re-armed on every change.
		c.scheduleTimer(c.timerDue)
		return
	}
	c.timerDue = 0
	if c.state == stateClosed {
		return
	}
	if c.state == stateClosing || c.state == stateDraining {
		if now >= c.drainDeadline {
			c.enterTerminal(now)
		} else {
			c.rearmTimer()
		}
		return
	}
	// Idle timeout (RFC 9000 §10.1): nothing received for IdleTimeout means
	// the peer (or every path to it) is gone; close silently.
	if c.cfg.IdleTimeout > 0 && now >= c.lastRecvActivity+c.cfg.IdleTimeout {
		c.closeSilently(now, ErrCodeIdleTimeout, "idle timeout")
		return
	}
	// Handshake retransmission, with a terminal error once the PTO budget is
	// exhausted: a connection that can never complete its handshake must
	// surface the failure (Stats + OnClosed) instead of stalling silently
	// with a live retransmission timer.
	if (c.state == stateHandshake || !c.handshakeDone) && c.initSpace.HasUnacked() {
		if d := c.initSpace.PTODeadline(); d > 0 && now >= d {
			c.initSpace.OnPTO(now)
			if c.initSpace.PTOCount() > c.cfg.HandshakeMaxPTOs {
				if c.state == stateHandshake {
					// No 1-RTT keys yet; nothing useful to send.
					c.closeSilently(now, ErrCodeHandshakeTimeout, "handshake timed out")
				} else {
					// Established (server side) but the peer never confirmed:
					// close properly in case a path still works.
					c.Close(ErrCodeHandshakeTimeout, "handshake confirmation timed out")
				}
				return
			}
			c.sendInitial()
		}
	}
	if c.state == stateEstablished {
		if c.secondaryAt > 0 && now >= c.secondaryAt {
			c.maybeInitSecondaryPaths(now)
		}
		for _, id := range c.pathOrder {
			p := c.paths[id]
			if lt := p.Space.LossTime(); lt > 0 && now >= lt {
				lost := p.Space.OnLossTimeout(now)
				c.handleLost(now, p, lost, "time")
			}
			if pd := p.Space.PTODeadline(); pd > 0 && now >= pd {
				c.onPathPTO(now, p)
			}
			if p.ackQueued && now >= p.largestRecvTime+c.cfg.MaxAckDelay {
				c.flushAcks(now, true)
			}
		}
		c.maybeSend(now)
	}
	c.rearmTimer()
}

// onPathPTO probes a path after a timeout: the oldest unacked frames are
// re-queued and transmitted as new packets.
func (c *Conn) onPathPTO(now time.Duration, p *Path) {
	probes := p.Space.OnPTO(now)
	if !c.cfg.DisablePathHealth && c.multipath &&
		p.Space.PTOCount() >= pathGiveUpPTOs && c.anotherUsablePath(p) {
		// The path has timed out so many times in a row that suspicion and
		// standby demotion were not enough: give up on it outright while a
		// usable alternative exists. The peer learns via PATH_STATUS(abandon);
		// path 0 stays the primary even when it is the one abandoned.
		c.stats.AutoAbandonedPaths++
		c.tr.Anomaly(now, "path_auto_abandoned")
		c.AbandonPath(p.ID)
		return
	}
	if p.Space.PTOCount() >= 2 {
		if !c.cfg.DisablePathHealth && !p.suspect && c.multipath && len(c.pathOrder) > 1 {
			// XLINK path management (Sec 5.3/6): repeated timeouts demote
			// the path so data and acknowledgements move to the surviving
			// paths, the peer learns via PATH_STATUS, and everything
			// stranded is rescheduled immediately with a fresh congestion
			// state for the path's eventual return.
			p.suspect = true
			p.advertisedStandby = true
			p.lastStatusSeq++
			c.tr.PathStateChanged(now, p.ID, p.State.String(), "pto-suspect")
			c.queueCtrl(&wire.PathStatusFrame{
				PathID: p.ID, StatusSeq: p.lastStatusSeq, Status: wire.PathStandby,
			}, -1, false)
			c.evacuatePath(now, p)
		} else {
			// Vanilla behaviour: classic RTO semantics only. Outstanding
			// data becomes retransmittable and the window collapses, but
			// the path is not demoted — the min-RTT scheduler will keep
			// trusting its stale estimate, the Sec 3 pathology.
			lost := p.Space.DeclareAllLost(now)
			c.handleLost(now, p, lost, "pto")
			p.CC.OnRetransmissionTimeout(now)
		}
	} else {
		for _, sp := range probes {
			meta, ok := sp.Meta.(*packetMeta)
			if !ok {
				continue
			}
			for _, ch := range meta.chunks {
				if s := c.sendStreams[ch.streamID]; s != nil {
					s.onChunkLost(ch)
				}
			}
			for _, f := range meta.ctrl {
				c.ctrlQ = append(c.ctrlQ, ctrlItem{frame: f, pathID: -1, reliable: true})
			}
		}
	}
	// Always probe the timed-out path itself with a PING. When the probe
	// is acknowledged, the path's largest-acked advances past any tail
	// losses so time/packet-threshold detection can declare them and free
	// the congestion window (RFC 9002 §6.2.4-style tail loss recovery).
	c.queueCtrl(&wire.PingFrame{}, int64(p.ID), false)
}

// pathProgress is a path's latest liveness signal: either receiving packets
// on it or getting acknowledgements for packets sent on it — acks for a
// path's space may legitimately arrive on another path (fastest-path ACK_MP).
func pathProgress(p *Path) time.Duration {
	if p.lastAckAt > p.lastRecvAt {
		return p.lastAckAt
	}
	return p.lastRecvAt
}

// earlierDeadline folds candidate d into the running earliest deadline,
// ignoring unset (zero) candidates.
func earlierDeadline(deadline, d time.Duration) time.Duration {
	if d > 0 && (deadline == 0 || d < deadline) {
		return d
	}
	return deadline
}
