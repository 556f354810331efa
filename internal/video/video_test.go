package video

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

func testVideo() Video {
	return Video{
		ID:             "v1",
		Size:           2 << 20, // 2 MiB
		BitrateBps:     2_000_000,
		FPS:            30,
		FirstFrameSize: 64 << 10,
	}
}

func TestVideoDuration(t *testing.T) {
	v := testVideo()
	want := float64(v.Size*8) / 2_000_000
	if got := v.Duration().Seconds(); math.Abs(got-want) > 0.01 {
		t.Fatalf("duration %.2fs, want %.2f", got, want)
	}
}

func TestPlayerStartup(t *testing.T) {
	v := testVideo()
	p := NewPlayer(v, DefaultPlayerConfig())
	// Less than the first frame: still starting up.
	p.OnData(10*time.Millisecond, v.FirstFrameSize-1)
	if p.started {
		t.Fatal("must not start before first frame")
	}
	// Complete the first frame plus the start threshold.
	p.OnData(40*time.Millisecond, v.FirstFrameSize) // plenty of cushion
	m := p.Metrics(40 * time.Millisecond)
	if m.FirstFrameLatency != 40*time.Millisecond {
		t.Fatalf("first frame latency %v", m.FirstFrameLatency)
	}
	if m.StartupLatency != 40*time.Millisecond {
		t.Fatalf("startup latency %v", m.StartupLatency)
	}
}

func TestPlayerSmoothPlayback(t *testing.T) {
	v := testVideo()
	p := NewPlayer(v, DefaultPlayerConfig())
	// Deliver the entire video at t=0: no rebuffering possible.
	p.OnData(0, v.Size)
	end := v.Duration() + time.Second
	p.Advance(end)
	m := p.Metrics(end)
	if !m.Finished {
		t.Fatal("should finish")
	}
	if m.RebufferCount != 0 || m.RebufferTime != 0 {
		t.Fatalf("unexpected rebuffering: %+v", m)
	}
	if math.Abs(m.PlayTime.Seconds()-v.Duration().Seconds()) > 0.05 {
		t.Fatalf("play time %v vs duration %v", m.PlayTime, v.Duration())
	}
}

func TestPlayerRebuffering(t *testing.T) {
	v := testVideo()
	p := NewPlayer(v, DefaultPlayerConfig())
	// Deliver 1s of content, then stall for 2s, then the rest.
	oneSec := uint64(v.BytesPerSecond())
	p.OnData(0, oneSec)
	stallEnd := 3 * time.Second
	p.Advance(stallEnd) // buffer empties at ~1s; rebuffer 1s..3s
	p.OnData(stallEnd, v.Size-oneSec)
	p.Advance(stallEnd + v.Duration())
	m := p.Metrics(stallEnd + v.Duration())
	if m.RebufferCount != 1 {
		t.Fatalf("rebuffer count %d, want 1", m.RebufferCount)
	}
	if m.RebufferTime < 1900*time.Millisecond || m.RebufferTime > 2100*time.Millisecond {
		t.Fatalf("rebuffer time %v, want ~2s", m.RebufferTime)
	}
	if !m.Finished {
		t.Fatal("should finish after remaining data")
	}
	if m.RebufferRate() <= 0 {
		t.Fatal("rebuffer rate should be positive")
	}
}

func TestPlayerQoESignal(t *testing.T) {
	v := testVideo()
	p := NewPlayer(v, DefaultPlayerConfig())
	p.OnData(0, uint64(v.BytesPerSecond())) // 1s of content
	sig := p.QoESignal()
	if sig.BitrateBps != v.BitrateBps || sig.FramerateFPS != v.FPS {
		t.Fatalf("signal rates: %+v", sig)
	}
	if math.Abs(sig.PlaytimeLeft().Seconds()-1.0) > 0.05 {
		t.Fatalf("Δt = %v, want ~1s", sig.PlaytimeLeft())
	}
	if sig.CachedFrames < 28 || sig.CachedFrames > 31 {
		t.Fatalf("cached frames %d, want ~30", sig.CachedFrames)
	}
}

func TestPlayerDangerSamples(t *testing.T) {
	v := testVideo()
	p := NewPlayer(v, DefaultPlayerConfig())
	p.OnData(0, v.FirstFrameSize+uint64(v.BytesPerSecond()/2)) // 0.5s buffer
	// Drain to near-empty, sampling as we go.
	// Content lasts ~0.76s (64 KiB first frame + 0.5s at 250 KB/s).
	for ts := 100 * time.Millisecond; ts <= 900*time.Millisecond; ts += 50 * time.Millisecond {
		p.Advance(ts)
	}
	if p.DangerSamples == 0 {
		t.Fatal("draining to empty should produce danger samples")
	}
	if p.TotalSamples <= p.DangerSamples {
		t.Fatal("not every sample should be dangerous")
	}
}

func TestRequestRoundTrip(t *testing.T) {
	r := Request{ID: "abc", Offset: 1024, Length: 4096}
	got, err := ParseRequest(FormatRequest(r))
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("round trip %+v", got)
	}
	if _, err := ParseRequest("POST x 1 2\n"); err == nil {
		t.Fatal("bad verb must fail")
	}
	for _, line := range []string{
		"GET a b c\n",
		"GET v1 12abc 34\n",               // a number followed by junk
		"GET v1 0x10 34\n",                // not decimal
		"GET v1 5 7.5\n",                  // not an integer
		"GET v1 +5 7\n",                   // signed
		"GET v1 5 -7\n",                   // negative
		"GET v1 5 18446744073709551616\n", // past uint64
		"GET v1 5\n",                      // a field short
		"GET v1 5 7 8\n",                  // a field long
	} {
		if r, err := ParseRequest(line); err == nil {
			t.Errorf("ParseRequest(%q) = %+v, want an error", line, r)
		}
	}
}

// TestRequestRoundTripRandom: random requests survive FormatRequest and
// ParseRequest, and the line is the one fmt renders from "GET %s %d %d\n".
func TestRequestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		id := make([]byte, 1+rng.Intn(12))
		for j := range id {
			id[j] = byte('!' + rng.Intn('~'-'!'+1))
		}
		r := Request{ID: string(id), Offset: rng.Uint64() >> rng.Intn(64), Length: rng.Uint64() >> rng.Intn(64)}
		line := FormatRequest(r)
		if want := fmt.Sprintf("GET %s %d %d\n", r.ID, r.Offset, r.Length); line != want {
			t.Fatalf("FormatRequest(%+v) = %q, want %q", r, line, want)
		}
		if got, err := ParseRequest(line); err != nil || got != r {
			t.Fatalf("round trip of %q: %+v, %v", line, got, err)
		}
	}
}

func TestSynthesizeContentDeterministic(t *testing.T) {
	a := SynthesizeContent("v", 100, 50)
	b := SynthesizeContent("v", 100, 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("content must be deterministic")
		}
	}
	// Suffix consistency: content at offset 120 equals tail of range at 100.
	c := SynthesizeContent("v", 120, 30)
	for i := range c {
		if c[i] != a[20+i] {
			t.Fatal("content must be offset-consistent")
		}
	}
}

// TestContentTableMatchesReference: serving and verifying go eight bytes at a
// time through the period table; both must agree with contentByte byte for
// byte — at any alignment, across the table's wrap-around at k mod 2^16, with
// odd lengths — and verification must notice any one byte flipped.
func TestContentTableMatchesReference(t *testing.T) {
	rng := sim.NewRNG(3)
	offsets := []uint64{0, 1, 7, contentPeriod - 9, contentPeriod - 8, contentPeriod - 3, contentPeriod, 5*contentPeriod - 1, 1<<40 + 13}
	for i := 0; i < 20; i++ {
		offsets = append(offsets, uint64(rng.Int63()))
	}
	for _, id := range []string{"v", "alloc-gate", "probe"} {
		seed := contentSeed(id)
		for _, off := range offsets {
			for _, n := range []uint64{0, 1, 7, 8, 9, 15, 17, 1000, 3*contentPeriod + 5} {
				got := SynthesizeContent(id, off, n)
				for i := range got {
					if want := contentByte(seed, off+uint64(i)); got[i] != want {
						t.Fatalf("%s at %d+%d: byte %#x, reference %#x", id, off, i, got[i], want)
					}
				}
				if !contentMatches(id, off, got) {
					t.Fatalf("%s at %d, %d bytes: its own content does not verify", id, off, n)
				}
				if n == 0 {
					continue
				}
				i := rng.Intn(int(n))
				got[i] ^= 1 << rng.Intn(8)
				if contentMatches(id, off, got) {
					t.Fatalf("%s at %d, %d bytes: byte %d flipped and still verified", id, off, n, i)
				}
			}
		}
	}
}

// endToEnd runs a full video fetch over an emulated two-path network.
func endToEnd(t *testing.T, mode transport.ReinjectionMode, videoSize uint64) (*Player, *Requester, *transport.Pair, time.Duration) {
	t.Helper()
	loop := sim.NewLoop()
	params := wire.DefaultTransportParams()
	params.EnableMultipath = true
	ccfg := transport.Config{Params: params, Seed: 1}
	scfg := transport.Config{Params: params, Seed: 2, ReinjectionMode: mode}
	pair := transport.NewPair(loop, sim.NewRNG(9),
		transport.TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)

	v := testVideo()
	v.Size = videoSize
	player := NewPlayer(v, DefaultPlayerConfig())
	requester := NewRequester(pair.Client, v, player, DefaultRequesterConfig())
	server := NewServer(pair.Server, []Video{v})

	pair.Client.SetOnStreamData(requester.OnStreamData)
	pair.Server.SetOnStreamData(server.OnStreamData)
	pair.Client.SetQoEProvider(player.QoESignal)
	var doneAt time.Duration
	requester.SetOnComplete(func(now time.Duration) { doneAt = now })
	pair.Client.SetOnHandshakeDone(func(now time.Duration) { requester.Start(now) })
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(60 * time.Second)
	return player, requester, pair, doneAt
}

func TestEndToEndVideoFetch(t *testing.T) {
	player, req, _, doneAt := endToEnd(t, transport.ReinjectStreamPriority, 1<<20)
	if !req.Done() {
		t.Fatal("fetch incomplete")
	}
	if req.VerifyErrors() != 0 {
		t.Fatalf("%d content verification errors", req.VerifyErrors())
	}
	if doneAt == 0 || doneAt > 3*time.Second {
		t.Fatalf("fetch took %v", doneAt)
	}
	m := player.Metrics(60 * time.Second)
	if !m.Finished {
		t.Fatalf("playback did not finish: %+v", m)
	}
	if m.FirstFrameLatency == 0 || m.FirstFrameLatency > time.Second {
		t.Fatalf("first frame latency %v", m.FirstFrameLatency)
	}
	if len(req.Results) != 2 { // 1 MiB in 512 KiB chunks
		t.Fatalf("chunk results %d, want 2", len(req.Results))
	}
	for _, r := range req.Results {
		if r.RCT() <= 0 {
			t.Fatalf("bad RCT %v", r.RCT())
		}
	}
}

func TestServerServesFirstFrameTagged(t *testing.T) {
	_, req, pair, _ := endToEnd(t, transport.ReinjectFramePriority, 512<<10)
	if !req.Done() {
		t.Fatal("fetch incomplete")
	}
	if pair.Server.Stats().StreamBytesSent < 512<<10 {
		t.Fatal("server did not serve full video")
	}
}

func TestRequesterAbortStopsServer(t *testing.T) {
	loop := sim.NewLoop()
	params := wire.DefaultTransportParams()
	params.EnableMultipath = true
	ccfg := transport.Config{Params: params, Seed: 1}
	scfg := transport.Config{Params: params, Seed: 2, ReinjectionMode: transport.ReinjectStreamPriority}
	pair := transport.NewPair(loop, sim.NewRNG(9),
		transport.TwoPathConfig(4, 4, 20*time.Millisecond, 60*time.Millisecond), ccfg, scfg)

	v := testVideo()
	v.Size = 8 << 20 // long enough that abort lands mid-transfer
	player := NewPlayer(v, DefaultPlayerConfig())
	requester := NewRequester(pair.Client, v, player, DefaultRequesterConfig())
	server := NewServer(pair.Server, []Video{v})
	pair.Client.SetOnStreamData(requester.OnStreamData)
	pair.Server.SetOnStreamData(server.OnStreamData)
	pair.Client.SetOnHandshakeDone(func(now time.Duration) { requester.Start(now) })
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	loop.At(time.Second, func(time.Duration) { requester.Abort() })
	pair.RunUntil(1100 * time.Millisecond)
	atAbort := pair.Server.Stats().StreamBytesSent
	pair.RunUntil(10 * time.Second)
	after := pair.Server.Stats().StreamBytesSent
	if !requester.Aborted() {
		t.Fatal("requester should be aborted")
	}
	if after > atAbort+512<<10 {
		t.Fatalf("server kept streaming after abort: %d -> %d", atAbort, after)
	}
	if requester.Done() {
		t.Fatal("aborted fetch must not report done")
	}
}

// refDeliverInOrder is deliverInOrder as it was before the requester kept
// its chunks in request order: copy every chunk out of the map, sort by
// offset, walk them all. Kept as the reference model.
func refDeliverInOrder(r *Requester, now time.Duration) {
	ordered := make([]*chunkState, 0, len(r.chunks))
	for _, cs := range r.chunks {
		ordered = append(ordered, cs)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].offset < ordered[j].offset })
	for _, cs := range ordered {
		if cs.offset <= r.deliverPos && r.deliverPos < cs.offset+cs.received {
			n := cs.offset + cs.received - r.deliverPos
			r.deliverPos += n
			if r.player != nil {
				r.player.OnData(now, n)
			}
		}
	}
}

// chunkedRequester is a requester with n chunks of 1000 bytes requested and
// nothing received, built without a connection.
func chunkedRequester(n int, player *Player) *Requester {
	r := &Requester{player: player, chunks: map[uint64]*chunkState{}}
	for i := 0; i < n; i++ {
		cs := &chunkState{offset: uint64(i) * 1000, length: 1000, streamID: uint64(4 * i)}
		r.chunks[cs.streamID] = cs
		r.order = append(r.order, cs)
	}
	return r
}

// TestDeliverInOrderMatchesReference feeds the same out-of-order arrivals to
// the cursor walk and to the copy-and-sort walk it replaced: the player must
// see the same OnData calls, in the same order (each call leaves one
// BufferSeries sample).
func TestDeliverInOrderMatchesReference(t *testing.T) {
	const chunks = 12
	v := testVideo()
	v.Size = chunks * 1000
	got, want := NewPlayer(v, DefaultPlayerConfig()), NewPlayer(v, DefaultPlayerConfig())
	a, b := chunkedRequester(chunks, got), chunkedRequester(chunks, want)
	rng := sim.NewRNG(3)
	for step := 1; a.deliverPos < v.Size; step++ {
		// Any of three chunks around the delivery point may progress, as
		// with concurrent requests on paths of different speed.
		i := int(a.deliverPos/1000) + rng.Intn(3)
		if i >= chunks {
			i = chunks - 1
		}
		ca, cb := a.order[i], b.order[i]
		n := min(uint64(1+rng.Intn(400)), ca.length-ca.received)
		ca.received += n
		cb.received += n
		now := time.Duration(step) * time.Millisecond
		a.deliverInOrder(now)
		refDeliverInOrder(b, now)
		if a.deliverPos != b.deliverPos {
			t.Fatalf("step %d: delivered up to %d, reference %d", step, a.deliverPos, b.deliverPos)
		}
	}
	if !slices.Equal(got.BufferSeries.Times, want.BufferSeries.Times) ||
		!slices.Equal(got.BufferSeries.Values, want.BufferSeries.Values) {
		t.Fatal("the player saw different OnData calls than under the reference walk")
	}
	if got.BufferSeries.Len() < chunks {
		t.Fatalf("only %d deliveries for %d chunks", got.BufferSeries.Len(), chunks)
	}
}

// TestAllocGateDeliverInOrder: handing newly contiguous bytes on runs on the
// requester's own chunk list (scripts/check.sh runs every TestAllocGate*).
func TestAllocGateDeliverInOrder(t *testing.T) {
	r := chunkedRequester(200, nil)
	for _, cs := range r.order[:100] { // a long-running fetch: half the video is behind us
		cs.received = cs.length
	}
	r.deliverInOrder(0)
	cs := r.order[100]
	avg := testing.AllocsPerRun(100, func() {
		cs.received += 5
		r.deliverInOrder(0)
	})
	if avg > 0 {
		t.Fatalf("a delivery allocates %.1f/op, want 0", avg)
	}
	if r.deliverPos != cs.offset+cs.received {
		t.Fatalf("delivered up to %d, want %d", r.deliverPos, cs.offset+cs.received)
	}
}

// TestServerBareFINParsesNothing: the Requester closes each request stream
// right after the request line, so the FIN usually reaches the server in a
// packet of its own, after the request was served. That bare FIN ends the
// stream: it allocates nothing, builds no pending line and parses no request.
func TestServerBareFINParsesNothing(t *testing.T) {
	loop := sim.NewLoop()
	params := wire.DefaultTransportParams()
	params.EnableMultipath = true
	pair := transport.NewPair(loop, sim.NewRNG(9),
		transport.TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond),
		transport.Config{Params: params, Seed: 1}, transport.Config{Params: params, Seed: 2})
	v := testVideo()
	v.Size = 64 << 10
	player := NewPlayer(v, DefaultPlayerConfig())
	requester := NewRequester(pair.Client, v, player, DefaultRequesterConfig())
	server := NewServer(pair.Server, []Video{v})
	var req *transport.RecvStream
	bareFINs := 0
	pair.Server.SetOnStreamData(func(now time.Duration, rs *transport.RecvStream, data []byte, fin bool) {
		req = rs
		if fin && len(data) == 0 {
			bareFINs++
		}
		server.OnStreamData(now, rs, data, fin)
	})
	pair.Client.SetOnStreamData(requester.OnStreamData)
	pair.Client.SetOnHandshakeDone(func(now time.Duration) { requester.Start(now) })
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(10 * time.Second)
	if !requester.Done() || bareFINs == 0 || server.Served[v.ID] != v.Size {
		t.Fatalf("fetch done %v, %d bare FINs, %d of %d bytes served",
			requester.Done(), bareFINs, server.Served[v.ID], v.Size)
	}
	if avg := testing.AllocsPerRun(100, func() { server.OnStreamData(loop.Now(), req, nil, true) }); avg != 0 {
		t.Fatalf("a bare FIN after a served request allocates %.1f, want 0", avg)
	}
	if len(server.pending) != 0 || server.Served[v.ID] != v.Size {
		t.Fatalf("after the bare FINs: %d pending lines, %d bytes served", len(server.pending), server.Served[v.ID])
	}
}

// TestServerBoundsThePendingRequestLine: a peer that sends 64 KiB with no
// newline on a request stream must not make the server hold them, nor rescan
// every pending byte on each callback. The pending line never passes
// maxRequestLine; once it would, the stream loses its entry and the server
// stops it, so no further data reaches the server's callback.
func TestServerBoundsThePendingRequestLine(t *testing.T) {
	loop := sim.NewLoop()
	params := wire.DefaultTransportParams()
	params.EnableMultipath = true
	pair := transport.NewPair(loop, sim.NewRNG(9),
		transport.TwoPathConfig(10, 10, 20*time.Millisecond, 60*time.Millisecond),
		transport.Config{Params: params, Seed: 1}, transport.Config{Params: params, Seed: 2})
	server := NewServer(pair.Server, []Video{testVideo()})
	peak, after := 0, 0
	var stream *transport.RecvStream
	pair.Server.SetOnStreamData(func(now time.Duration, rs *transport.RecvStream, data []byte, fin bool) {
		if stream != nil && stream.Finished() {
			after += len(data)
		}
		stream = rs
		server.OnStreamData(now, rs, data, fin)
		if b := server.pending[rs.ID()]; b != nil && b.Len() > peak {
			peak = b.Len()
		}
	})
	junk := make([]byte, 1<<10)
	for i := range junk {
		junk[i] = 'x'
	}
	pair.Client.SetOnHandshakeDone(func(time.Duration) {
		s := pair.Client.Stream(0)
		for i := 0; i < 64; i++ {
			s.Write(junk)
		}
	})
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(10 * time.Second)
	if stream == nil {
		t.Fatal("no request bytes reached the server")
	}
	if peak > maxRequestLine || len(server.pending) != 0 {
		t.Fatalf("the server held a %d-byte pending line (bound %d) and ends with %d pending", peak, maxRequestLine, len(server.pending))
	}
	if !stream.Finished() || after != 0 {
		t.Fatalf("the over-long stream was not stopped: finished %v, %d bytes delivered after", stream.Finished(), after)
	}
}
