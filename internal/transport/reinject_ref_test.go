package transport

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

// refScheduler is the re-injection scheduler as it was before it became
// incremental, kept as the reference model: every pull re-scans every packet
// in flight on every path for every stream ever opened, stable-sorts the
// stream's queue after each scan, and discards delivered copies only when a
// pop trips over them. It keeps its own queues and drives a connection
// through Conn.pullHook; everything else (new data, retransmissions, the
// per-packet reinjected latch, the gate) is the connection's own.
type refScheduler struct {
	c      *Conn
	q      map[uint64]*[]chunk
	global []chunk
	// opened is every send stream the connection ever held: it forgets the
	// ones that can never send again, the reference does not.
	opened map[uint64]*SendStream
}

func newRefScheduler(c *Conn) *refScheduler {
	return &refScheduler{c: c, q: map[uint64]*[]chunk{}, opened: map[uint64]*SendStream{}}
}

func (r *refScheduler) queue(s *SendStream) *[]chunk {
	q := r.q[s.id]
	if q == nil {
		q = new([]chunk)
		r.q[s.id] = q
	}
	return q
}

// streams is every send stream ever opened in ID order: the
// reference never retires one.
func (r *refScheduler) streams() []*SendStream {
	for id, s := range r.c.sendStreams {
		r.opened[id] = s
	}
	out := make([]*SendStream, 0, len(r.opened))
	for _, s := range r.opened {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// dropReset discards the queued copies of reset streams, from their own
// queues (as SendStream.Reset always did) and from the shared one (the fix
// that rides along with the incremental scheduler).
func (r *refScheduler) dropReset() {
	for id, q := range r.q {
		if r.opened[id].reset {
			*q = nil
		}
	}
	kept := r.global[:0]
	for _, ch := range r.global {
		if !r.opened[ch.streamID].reset {
			kept = append(kept, ch)
		}
	}
	r.global = kept
}

func (r *refScheduler) pull(now time.Duration, p *Path, maxLen int) (chunk, bool) {
	ch, ok := r.next(now, p, maxLen)
	if ok && r.c.sendStreams[ch.streamID] == nil {
		// The connection forgot a stream whose copy only the reference had
		// queued; the reference never forgets one, so it puts it back.
		r.c.sendStreams[ch.streamID] = r.opened[ch.streamID]
	}
	return ch, ok
}

func (r *refScheduler) next(now time.Duration, p *Path, maxLen int) (chunk, bool) {
	c := r.c
	if maxLen <= 0 {
		return chunk{}, false
	}
	r.dropReset()
	mode := c.cfg.ReinjectionMode
	allowReinj := c.reinjectionAllowed(now) && c.isFastestPath(p)
	streams := r.streams()
	for _, s := range streams {
		if s.hasRtx() {
			if ch, ok := s.nextRtxChunk(maxLen); ok {
				return ch, true
			}
		}
		if mode == ReinjectFramePriority {
			if ch, ok := r.pullFramePriority(s, p, maxLen, allowReinj); ok {
				return ch, true
			}
			continue
		}
		if ch, ok := c.pullNew(s, maxLen); ok {
			return ch, true
		}
		if mode == ReinjectStreamPriority && allowReinj {
			r.scan(s, 0)
			if ch, ok := r.pop(r.queue(s), p, maxLen); ok {
				return ch, true
			}
		}
	}
	if mode == ReinjectAppending && allowReinj {
		for _, s := range streams {
			r.scan(s, 0)
			q := r.queue(s)
			r.global = append(r.global, *q...)
			*q = nil
		}
		if ch, ok := r.pop(&r.global, p, maxLen); ok {
			return ch, true
		}
	}
	return chunk{}, false
}

func (r *refScheduler) pullFramePriority(s *SendStream, p *Path, maxLen int, allowReinj bool) (chunk, bool) {
	q := r.queue(s)
	if allowReinj {
		r.scan(s, s.nextOffset)
	}
	nextFramePrio := defaultFramePrio
	if s.hasNewData() {
		nextFramePrio = s.frameAt(s.nextOffset).Prio
	}
	if allowReinj {
		for {
			best := -1
			for i, ch := range *q {
				if ch.originPath == p.ID {
					continue
				}
				if ch.framePrio < nextFramePrio && (best < 0 || ch.framePrio < (*q)[best].framePrio) {
					best = i
				}
			}
			if best < 0 {
				break
			}
			if ch, ok := r.takeAt(q, best, maxLen); ok {
				return ch, true
			}
		}
	}
	if ch, ok := r.c.pullNew(s, maxLen); ok {
		return ch, true
	}
	if allowReinj {
		return r.pop(q, p, maxLen)
	}
	return chunk{}, false
}

func (r *refScheduler) scan(s *SendStream, sentBefore uint64) {
	if s.reset {
		return
	}
	q := r.queue(s)
	for _, p := range r.c.paths {
		for _, sp := range p.Space.SentFrom(0) {
			meta, ok := sp.Meta.(*packetMeta)
			if !ok || meta.reinjected || !sp.InFlight() {
				continue
			}
			match := false
			for _, ch := range meta.chunks {
				if ch.streamID != s.id {
					continue
				}
				if sentBefore > 0 && ch.offset+ch.length > sentBefore {
					continue
				}
				if ch.length == 0 && !ch.fin {
					continue
				}
				if ch.length > 0 && s.acked.Contains(ch.offset, ch.offset+ch.length) {
					continue
				}
				if ch.length > 0 && (s.fecCovered.Contains(ch.offset, ch.offset+ch.length) ||
					s.recovered.Contains(ch.offset, ch.offset+ch.length)) {
					continue
				}
				dup := ch
				dup.reinjection = true
				dup.isNew = false
				dup.originPath = p.ID
				*q = append(*q, dup)
				match = true
			}
			if match {
				meta.reinjected = true
			}
		}
	}
	sort.SliceStable(*q, func(i, j int) bool { return (*q)[i].framePrio < (*q)[j].framePrio })
}

func (r *refScheduler) pop(q *[]chunk, p *Path, maxLen int) (chunk, bool) {
	i := 0
	for i < len(*q) {
		if (*q)[i].originPath == p.ID {
			i++
			continue
		}
		if ch, ok := r.takeAt(q, i, maxLen); ok {
			return ch, true
		}
		// The stale entry at i was removed; look at the same index again.
	}
	return chunk{}, false
}

func (r *refScheduler) takeAt(q *[]chunk, i int, maxLen int) (chunk, bool) {
	ch := (*q)[i]
	s := r.opened[ch.streamID]
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
	if ch.length == 0 && !ch.fin {
		*q = append((*q)[:i], (*q)[i+1:]...)
		return chunk{}, false
	}
	if ch.length > uint64(maxLen) {
		rest := ch
		rest.offset += uint64(maxLen)
		rest.length -= uint64(maxLen)
		ch.length = uint64(maxLen)
		ch.fin = false
		(*q)[i] = rest
	} else {
		*q = append((*q)[:i], (*q)[i+1:]...)
	}
	return ch, true
}

// pulled is one chunk a scheduler handed to packet assembly: the packet it
// went into (the count of packets sent before it), the path, and the chunk.
type pulled struct {
	pkt  uint64
	path uint64
	ch   chunk
}

// reinjScenario runs a lossy two-path transfer that exercises every branch
// of the scheduler: a gate that toggles, first frames tagged priority 0,
// short streams whose chunks share packets, and a reset in mid-transfer. It
// returns what the server's scheduler emitted and both ends' counters.
func reinjScenario(t *testing.T, mode ReinjectionMode, seed int64, reference bool) ([]pulled, ConnStats, ConnStats) {
	t.Helper()
	loop := sim.NewLoop()
	cfgs := TwoPathConfig(6, 3, 20*time.Millisecond, 80*time.Millisecond)
	cfgs[0].LossRate, cfgs[1].LossRate = 0.02, 0.02
	ccfg, scfg := defaultMPConfig()
	scfg.ReinjectionMode = mode
	scfg.ReinjectionGate = func(now, _ time.Duration) bool {
		return (now/(40*time.Millisecond))%4 != 0 // shut for 40 ms in every 160
	}
	pair := NewPair(loop, sim.NewRNG(seed), cfgs, ccfg, scfg)
	pair.Client.SetOnStreamData(func(time.Duration, *RecvStream, []byte, bool) {})
	srv := pair.Server

	var out []pulled
	pull := srv.pullChunk
	if reference {
		pull = newRefScheduler(srv).pull
	}
	srv.pullHook = func(now time.Duration, p *Path, maxLen int) (chunk, bool) {
		ch, ok := pull(now, p, maxLen)
		if ok {
			out = append(out, pulled{pkt: srv.stats.SentPackets, path: p.ID, ch: ch})
		}
		return ch, ok
	}

	// Streams 0, 8, 16, ... answer with a tagged first frame and a long
	// body; the ones between answer with 300 bytes, so several of them fit
	// one packet together with the tail of a neighbour.
	srv.SetOnStreamOpen(func(now time.Duration, rs *RecvStream) {
		ss := srv.Stream(rs.ID())
		if rs.ID()%8 == 0 {
			ss.WriteFrame(make([]byte, 24<<10), 0)
			ss.Write(make([]byte, 150<<10))
		} else {
			ss.Write(make([]byte, 300))
		}
		ss.Close()
	})
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	open := func(time.Duration) {
		for i := 0; i < 6; i++ {
			s := pair.Client.OpenStream()
			s.Write([]byte("GET"))
			s.Close()
		}
	}
	pair.Client.SetOnHandshakeDone(open)
	loop.At(900*time.Millisecond, open)
	loop.At(600*time.Millisecond, func(time.Duration) { srv.Stream(8).Reset(0x10) })
	pair.RunUntil(8 * time.Second)
	return out, srv.Stats(), pair.Client.Stats()
}

// TestIncrementalSchedulerMatchesReference holds the incremental scheduler
// to the scan-everything-and-sort one it replaced: the same chunks, in the
// same packets, on the same paths, in all three re-injection modes.
func TestIncrementalSchedulerMatchesReference(t *testing.T) {
	for _, mode := range []ReinjectionMode{ReinjectAppending, ReinjectStreamPriority, ReinjectFramePriority} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", mode, seed), func(t *testing.T) {
				got, gotSrv, gotCli := reinjScenario(t, mode, seed, false)
				want, wantSrv, wantCli := reinjScenario(t, mode, seed, true)
				for i := 0; i < len(got) && i < len(want); i++ {
					if got[i] != want[i] {
						t.Fatalf("chunk %d: incremental %+v, reference %+v", i, got[i], want[i])
					}
				}
				if len(got) != len(want) {
					t.Fatalf("incremental emitted %d chunks, reference %d", len(got), len(want))
				}
				if gotSrv != wantSrv || gotCli != wantCli {
					t.Fatalf("counters differ:\n incremental %+v / %+v\n reference   %+v / %+v", gotSrv, gotCli, wantSrv, wantCli)
				}

				// The comparison only means something if the scenario reached
				// the branches it was built for.
				var reinj, urgent, shared, afterReset int
				streamsIn := map[uint64]uint64{} // packet → first stream seen in it
				for _, r := range got {
					if r.ch.reinjection {
						reinj++
						if r.ch.framePrio == 0 {
							urgent++
						}
					}
					if first, ok := streamsIn[r.pkt]; !ok {
						streamsIn[r.pkt] = r.ch.streamID
					} else if first != r.ch.streamID {
						shared++
					}
					if r.ch.streamID == 8 {
						afterReset = 0
					} else {
						afterReset++
					}
				}
				if reinj == 0 || shared == 0 || afterReset == 0 {
					t.Fatalf("scenario too tame: %d re-injections, %d chunks sharing a packet with another stream, %d chunks after stream 8's last", reinj, shared, afterReset)
				}
				if mode == ReinjectFramePriority && urgent == 0 {
					t.Fatal("no first-frame re-injection under frame priority")
				}
				if gotSrv.StreamBytesSent < 2*(174<<10) {
					t.Fatalf("transfer stalled: %d stream bytes sent", gotSrv.StreamBytesSent)
				}
			})
		}
	}
}
