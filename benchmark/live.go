package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/xlink"
)

// liveRR is the live-rr workload: xlink.Listen plus one two-path xlink.Dial
// over 127.0.0.1, then sequential request/response exchanges in two phases.
// It is a closed loop with one caller: the next request is written only
// after the previous response's FIN was delivered.
type liveRR struct {
	// corrupt, when set, makes the server flip one byte of the response to
	// the request IDs it reports true for (the smoke test's failure check).
	corrupt func(id uint64) bool
}

func (*liveRR) name() string { return wlLive }

const (
	requestBytes   = 64
	tinyRespBytes  = 1000
	chunkRespBytes = 64 << 10
	requestTimeout = 2 * time.Second
	// blockSlack lets a response start at an ID-derived offset of the
	// content block.
	blockSlack = 256
)

// liveInputs are the workload's inputs, drawn from the seed: the content
// block responses are cut from and the filler of every request.
type liveInputs struct {
	block  []byte
	filler [requestBytes - 16]byte
	seed   int64
}

func newLiveInputs(seed int64) *liveInputs {
	in := &liveInputs{block: make([]byte, chunkRespBytes+blockSlack), seed: seed}
	rng := rand.New(rand.NewSource(seed))
	rng.Read(in.block)
	rng.Read(in.filler[:])
	return in
}

// response is the expected response to request id: size bytes of the block
// from an offset the ID picks.
func (in *liveInputs) response(id uint64, size int) []byte {
	off := int(id % blockSlack)
	return in.block[off : off+size]
}

// pending is the request in flight on the client.
type pending struct {
	streamID uint64
	want     []byte
	got      int
	bad      bool
	finAt    time.Time
	done     chan struct{}
}

// liveSession is one connection's worth of state shared with the endpoint
// callbacks.
type liveSession struct {
	in     *liveInputs
	rec    *recorder
	server atomic.Pointer[xlink.Endpoint]

	mu sync.Mutex
	// cur is guarded by mu: written by the caller, read by the client
	// callback goroutine.
	cur *pending
	// reqBuf is guarded by mu: partial request bytes per stream, touched
	// only by the server callback.
	reqBuf map[uint64][]byte

	corrupt func(id uint64) bool
}

// healthyBuffer is the QoE feedback of a player with eight seconds cached,
// far above Tth2, so Alg. 1 is consulted and keeps re-injection off.
func healthyBuffer() xlink.QoESignal {
	return xlink.QoESignal{CachedBytes: 8 << 20, CachedFrames: 240, BitrateBps: 8_000_000, FramerateFPS: 30}
}

// serverData is the server's OnStreamData: collect the 64-byte request,
// then write the response it asks for and finish the stream.
func (s *liveSession) serverData(_ time.Duration, rs *xlink.RecvStream, data []byte, fin bool) {
	sp := s.rec.begin("xlink.server_callback", rs.ID(), -1)
	defer s.rec.end(sp)
	s.mu.Lock()
	buf := append(s.reqBuf[rs.ID()], data...)
	if fin {
		delete(s.reqBuf, rs.ID())
	} else {
		s.reqBuf[rs.ID()] = buf
	}
	s.mu.Unlock()
	if !fin || len(buf) != requestBytes {
		return
	}
	id := binary.BigEndian.Uint64(buf[0:8])
	size := int(binary.BigEndian.Uint64(buf[8:16]))
	if size > chunkRespBytes || !bytes.Equal(buf[16:], s.in.filler[:]) {
		return // not a request this workload wrote; the caller times out
	}
	resp := s.in.response(id, size)
	if s.corrupt != nil && s.corrupt(id) {
		resp = append([]byte(nil), resp...)
		resp[len(resp)/2] ^= 0xff
	}
	st := s.server.Load().StreamFor(rs.ID())
	st.Write(resp)
	st.Close()
}

// clientData is the client's OnStreamData: check response bytes against the
// expected content as they arrive and signal the caller at FIN.
func (s *liveSession) clientData(_ time.Duration, rs *xlink.RecvStream, data []byte, fin bool) {
	sp := s.rec.begin("xlink.client_callback", rs.ID(), -1)
	defer s.rec.end(sp)
	s.mu.Lock()
	p := s.cur
	if p == nil || p.streamID != rs.ID() {
		s.mu.Unlock()
		return // late data of a request that already timed out
	}
	if p.got+len(data) > len(p.want) || !bytes.Equal(data, p.want[p.got:p.got+len(data)]) {
		p.bad = true
	}
	p.got += len(data)
	done := fin
	if done {
		p.finAt = time.Now()
		s.cur = nil
	}
	s.mu.Unlock()
	if done {
		close(p.done)
	}
}

// phaseResult is one phase's requests as the caller saw them.
type phaseResult struct {
	wallS     float64
	latencies []float64 // seconds, request write to response FIN callback
	writeS    float64   // time blocked in Stream.Write + Close
	bytes     uint64    // verified response bytes
	failed    int
}

// request performs one exchange; it reports false on timeout or bad content.
func (s *liveSession) request(client *xlink.Endpoint, id uint64, size int, out *phaseResult) {
	var req [requestBytes]byte
	binary.BigEndian.PutUint64(req[0:8], id)
	binary.BigEndian.PutUint64(req[8:16], uint64(size))
	copy(req[16:], s.in.filler[:])

	root := s.rec.begin("xlink.request", id, -1)
	st := client.OpenStream()
	p := &pending{streamID: st.ID(), want: s.in.response(id, size), done: make(chan struct{})}
	s.mu.Lock()
	s.cur = p
	s.mu.Unlock()

	t0 := time.Now()
	wr := s.rec.begin("xlink.write_call", id, root)
	st.Write(req[:])
	st.Close()
	s.rec.end(wr)
	out.writeS += time.Since(t0).Seconds()

	timeout := time.NewTimer(requestTimeout)
	select {
	case <-p.done:
		timeout.Stop()
	case <-timeout.C:
		s.mu.Lock()
		if s.cur == p {
			s.cur = nil
		}
		s.mu.Unlock()
		// The FIN may have landed between the timer firing and the lock.
		select {
		case <-p.done:
		default:
			s.rec.end(root)
			out.failed++
			return
		}
	}
	s.rec.end(root)
	if p.bad || p.got != size {
		out.failed++
		return
	}
	out.latencies = append(out.latencies, p.finAt.Sub(t0).Seconds())
	out.bytes += uint64(size)
}

// liveOutcome is one connection's measurements.
type liveOutcome struct {
	tiny, chunk    phaseResult
	server, client transport.ConnStats
	card           obs.Scorecard // the server's: Alg. 1 runs there
	batchMean      float64
	retained       int64
	cost           cost
}

// session runs one connection: listen, dial, handshake, both phases, close.
// base is the live heap before the run's first connection.
func (w *liveRR) session(in *liveInputs, sc scale, base int64, rec *recorder) (liveOutcome, error) {
	var o liveOutcome
	runtime.GC() // every repetition starts from a collected heap
	start := readUsage()

	group := xlink.NewEventLoopGroup(workers())
	defer func() {
		group.Close()
		group.Wait()
	}()
	s := &liveSession{in: in, rec: rec, reqBuf: map[uint64][]byte{}, corrupt: w.corrupt}
	server, err := xlink.Listen("127.0.0.1:0", xlink.LiveConfig{
		Scheme: xlink.SchemeXLINK, Loops: group, OnStreamData: s.serverData, Seed: in.seed ^ 0x22,
	})
	if err != nil {
		return o, fmt.Errorf("listen: %w", err)
	}
	defer server.Close()
	s.server.Store(server)

	handshake := make(chan struct{})
	client, err := xlink.Dial(server.LocalAddrs()[0].String(),
		[]string{"127.0.0.1:0", "127.0.0.1:0"},
		[]xlink.Technology{xlink.TechWiFi, xlink.TechLTE}, xlink.LiveConfig{
			Scheme: xlink.SchemeXLINK, Loops: group, OnStreamData: s.clientData,
			OnHandshakeDone: func(time.Duration) { close(handshake) },
			QoEProvider:     healthyBuffer, Seed: in.seed ^ 0x11,
		})
	if err != nil {
		return o, fmt.Errorf("dial: %w", err)
	}
	defer client.Close()
	timeout := time.NewTimer(5 * time.Second)
	defer timeout.Stop()
	select {
	case <-handshake:
	case <-timeout.C:
		return o, fmt.Errorf("handshake did not complete in 5 s")
	}

	id := uint64(0)
	phase := func(n, size int) phaseResult {
		var pr phaseResult
		t0 := time.Now()
		for i := 0; i < n; i++ {
			id++
			s.request(client, id, size, &pr)
		}
		pr.wallS = time.Since(t0).Seconds()
		return pr
	}
	o.tiny = phase(sc.tinyRequests, tinyRespBytes)
	o.chunk = phase(sc.chunkRequests, chunkRespBytes)

	o.cost = readUsage().since(start)
	o.retained = liveHeap() - base
	runtime.KeepAlive(s)
	o.server, o.client, o.card = server.Stats(), client.Stats(), server.Scorecard()
	o.batchMean = batchSizeMean(server.Metrics())
	return o, nil
}

// batchSizeMean is the mean of the endpoint's xlink_batch_size histograms:
// packets per SendBatch flush.
func batchSizeMean(reg *obs.Registry) float64 {
	if reg == nil {
		return 0
	}
	var sum float64
	var n uint64
	for _, h := range reg.Snapshot().Hists {
		if strings.HasPrefix(string(h.Name), string(obs.MetricBatchSize)) {
			sum += h.Sum
			n += h.Count
		}
	}
	return ratio(sum, float64(n))
}

func (o liveOutcome) sample(sc scale) repSample {
	return repSample{
		cost:         o.cost,
		appBytes:     o.tiny.bytes + o.chunk.bytes,
		goodputBytes: o.chunk.bytes, goodputWallS: o.chunk.wallS,
		serverPkts:   o.server.SentPackets,
		requests:     len(o.tiny.latencies) + len(o.chunk.latencies),
		requestWallS: o.tiny.wallS + o.chunk.wallS,
		retained:     o.retained,
		attempted:    sc.tinyRequests + sc.chunkRequests,
		failed:       o.tiny.failed + o.chunk.failed,
	}
}

// setup is one set-up unit: draw the inputs and take a fresh connection
// through its handshake and a few requests of each phase.
func (w *liveRR) setup(sc scale, seed int64) error {
	o, err := w.session(newLiveInputs(seed), sc, 0, nil)
	if err != nil {
		return err
	}
	if f := o.tiny.failed + o.chunk.failed; f != 0 {
		return fmt.Errorf("live-rr set-up connection: %d requests failed", f)
	}
	return nil
}

// liveLatencies accumulates request latencies over repetitions.
type liveLatencies struct{ tiny, chunk []float64 }

func (l *liveLatencies) add(o liveOutcome) {
	l.tiny = append(l.tiny, o.tiny.latencies...)
	l.chunk = append(l.chunk, o.chunk.latencies...)
}

func (l *liveLatencies) values() map[string]float64 {
	return map[string]float64{
		"xlink.tiny_rtt_p50_us":      percentile(l.tiny, 50) * 1e6,
		"xlink.tiny_rtt_p99_us":      percentile(l.tiny, 99) * 1e6,
		"xlink.chunk_latency_p50_ms": percentile(l.chunk, 50) * 1e3,
		"xlink.chunk_latency_p99_ms": percentile(l.chunk, 99) * 1e3,
	}
}
