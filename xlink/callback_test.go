package xlink

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// Tests for shard-owned connections (DESIGN.md §16): user callbacks run on
// the shard, inline inside the transport call that raised them, and every
// call a callback or a foreign goroutine makes on an endpoint or a stream is
// an op on the shard's FIFO, which never blocks (a foreign Write over its
// endpoint's backlog waits before it posts).

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// liveByte is the content of the test payload at offset k.
func liveByte(k uint64) byte { return byte(k*2654435761>>9) ^ byte(k>>13) }

// TestLiveDataCallbacksKeepOrderAndContent moves a few megabytes from server
// to client over loopback while a second client goroutine uploads on streams
// of its own, so the client's ops and its data callbacks interleave
// (scripts/check.sh runs it under -race). Every data callback runs on the
// client's shard, inside the turn that delivered the data: it reads the
// endpoint's shard-owned inTurn, which the race detector would report if it
// ran anywhere else. Every delivered byte must arrive in order and intact:
// the data is the transport's own buffer, lent for the call, and the uploads'
// copies go through the same buffer pools. The uploads offer 48 KiB a
// millisecond, more than the connection drains under -race: their Writes
// wait while the client's backlog is over writeBacklog, so the shard's send
// passes do not starve the download.
func TestLiveDataCallbacksKeepOrderAndContent(t *testing.T) {
	const size = 4 << 20
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = liveByte(uint64(i))
	}
	var server *Endpoint
	serverReady := make(chan struct{})
	server, err := Listen("127.0.0.1:0", LiveConfig{
		Scheme: SchemeXLINK, Seed: 29,
		OnStreamData: func(_ time.Duration, s *RecvStream, _ []byte, fin bool) {
			if s.ID() == 0 && fin { // the request; the other streams are uploads
				<-serverReady
				st := server.StreamFor(0)
				st.Write(payload)
				st.Close()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	close(serverReady)
	defer server.Close()

	var got, bad, offShard atomic.Uint64
	var callbacks atomic.Int64
	done := make(chan struct{})
	var client *Endpoint
	clientReady := make(chan struct{})
	client, err = Dial(server.LocalAddrs()[0].String(), []string{"127.0.0.1:0", "127.0.0.1:0"},
		[]Technology{TechWiFi, TechLTE}, LiveConfig{
			Scheme: SchemeXLINK, Seed: 30,
			OnStreamData: func(_ time.Duration, _ *RecvStream, data []byte, fin bool) {
				<-clientReady
				if !client.inTurn {
					offShard.Add(1)
				}
				// Callbacks of one endpoint never overlap, so got is this
				// callback's own until it returns.
				off := got.Load()
				for i, b := range data {
					if b != liveByte(off+uint64(i)) {
						bad.Add(1)
					}
				}
				got.Add(uint64(len(data)))
				callbacks.Add(1)
				if fin {
					close(done)
				}
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	close(clientReady)
	defer client.Close()
	waitFor(t, 10*time.Second, client.Established, "handshake")

	req := client.OpenStream()
	req.Write([]byte("GET\n"))
	req.Close()
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		chunk := make([]byte, 48<<10)
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := client.OpenStream()
			st.Write(chunk)
			st.Close()
			time.Sleep(time.Millisecond)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Errorf("timed out with %d of %d bytes; client %s %+v; server %s %+v", got.Load(), size,
			client.StateName(), client.Stats(), server.StateName(), server.Stats())
	}
	close(stop)
	writer.Wait()
	if n := got.Load(); n != size || bad.Load() != 0 || offShard.Load() != 0 {
		t.Fatalf("delivered %d of %d bytes in %d callbacks, %d of them wrong, %d callbacks outside a turn",
			n, size, callbacks.Load(), bad.Load(), offShard.Load())
	}
}

// TestLiveCallbackCallsEveryMethod has a server callback call every Endpoint
// and Stream method in turn, ending with Close, and return: none may wait for
// the shard the callback runs on. (TraceBytes and /debug wait for the shard
// by design and say so.) The callback's writes, posted before its Close,
// reach the client ahead of CONNECTION_CLOSE, and the close is applied.
func TestLiveCallbackCallsEveryMethod(t *testing.T) {
	var server *Endpoint
	ready := make(chan struct{})
	returned := make(chan struct{})
	server, err := Listen("127.0.0.1:0", LiveConfig{
		Scheme: SchemeXLINK, Seed: 75,
		OnStreamData: func(_ time.Duration, s *RecvStream, _ []byte, fin bool) {
			if !fin {
				return
			}
			<-ready
			ep := server
			_, _, _, _ = ep.Established(), ep.Stats(), ep.StateName(), ep.Terminated()
			_, _, _ = ep.Scorecard(), ep.Metrics(), ep.LocalAddrs()
			_ = ep.DebugHandler()
			own := ep.OpenStream()
			own.WriteFrame([]byte("frame"), 0)
			own.Close()
			st := ep.StreamFor(s.ID())
			if st.ID() != s.ID() {
				t.Errorf("StreamFor(%d).ID() = %d", s.ID(), st.ID())
			}
			st.WriteFrame([]byte("first "), 0)
			st.Write([]byte("then the rest"))
			st.Close()
			ep.Close()
			close(returned)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	close(ready)
	defer server.Close()
	var mu sync.Mutex
	var got []byte
	fin := make(chan struct{})
	client, err := Dial(server.LocalAddrs()[0].String(), []string{"127.0.0.1:0"},
		[]Technology{TechWiFi}, LiveConfig{
			Scheme: SchemeXLINK, Seed: 76,
			OnStreamData: func(_ time.Duration, s *RecvStream, data []byte, f bool) {
				if s.ID() != 0 {
					return
				}
				mu.Lock()
				got = append(got, data...)
				mu.Unlock()
				if f {
					close(fin)
				}
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitFor(t, 10*time.Second, client.Established, "handshake")
	st := client.OpenStream()
	st.Write([]byte("go"))
	st.Close()
	for _, c := range []struct {
		ch   chan struct{}
		what string
	}{{returned, "the callback to return"}, {fin, "the response's FIN"}} {
		select {
		case <-c.ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", c.what)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if string(got) != "first then the rest" {
		t.Fatalf("client received %q", got)
	}
	waitFor(t, 5*time.Second, func() bool { return server.StateName() != "established" }, "the server's close")
}

// TestLiveCallbacksWriteAcrossFullShards: two shards, each running a
// callback that writes to an endpoint of the other while both shards'
// inbound channels are full. Posting an op never blocks, so neither callback
// waits for the other shard, and both responses arrive.
func TestLiveCallbacksWriteAcrossFullShards(t *testing.T) {
	group := NewEventLoopGroup(2)
	// Registered first, so it runs after the endpoints' closes.
	t.Cleanup(func() { group.Close(); group.Wait() })
	const size = 64 << 10
	payload := bytes.Repeat([]byte{0x5a}, size)
	arrived := make(chan struct{}, 2)
	release := make(chan struct{})
	// Endpoints attach round-robin: serverA and clientA on shard 0, serverB
	// and clientB on shard 1. Each server answers its client's request
	// through the other server, whose stream 0 is its own client's request.
	var serverA, serverB atomic.Pointer[Endpoint]
	answer := func(other *atomic.Pointer[Endpoint]) func(time.Duration, *RecvStream, []byte, bool) {
		return func(_ time.Duration, s *RecvStream, _ []byte, fin bool) {
			if !fin {
				return
			}
			arrived <- struct{}{}
			<-release
			st := other.Load().StreamFor(s.ID())
			st.Write(payload)
			st.Close()
		}
	}
	listen := func(seed int64, other *atomic.Pointer[Endpoint]) *Endpoint {
		ep, err := Listen("127.0.0.1:0", LiveConfig{Scheme: SchemeXLINK, Seed: seed, Loops: group, OnStreamData: answer(other)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ep.Close)
		return ep
	}
	serverA.Store(listen(77, &serverB))
	serverB.Store(listen(78, &serverA))
	var recvd [2]atomic.Uint64
	fins := make(chan struct{}, 2)
	dial := func(server *Endpoint, seed int64, n *atomic.Uint64) *Endpoint {
		ep, err := Dial(server.LocalAddrs()[0].String(), []string{"127.0.0.1:0"},
			[]Technology{TechWiFi}, LiveConfig{
				Scheme: SchemeXLINK, Seed: seed, Loops: group,
				OnStreamData: func(_ time.Duration, _ *RecvStream, data []byte, fin bool) {
					n.Add(uint64(len(data)))
					if fin {
						fins <- struct{}{}
					}
				},
			})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ep.Close)
		waitFor(t, 10*time.Second, ep.Established, "handshake")
		return ep
	}
	clientA := dial(serverA.Load(), 79, &recvd[0])
	clientB := dial(serverB.Load(), 80, &recvd[1])
	if serverA.Load().shard == serverB.Load().shard || clientA.shard != serverA.Load().shard {
		t.Fatal("endpoints did not attach to the shards the test needs")
	}
	for _, c := range []*Endpoint{clientA, clientB} {
		st := c.OpenStream()
		st.Write([]byte("go"))
		st.Close()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-arrived:
		case <-time.After(10 * time.Second):
			t.Fatal("the requests did not reach both callbacks")
		}
	}
	// Both shards are inside a callback: fill their inbound channels with
	// datagrams that are not QUIC packets.
	junk := netip.MustParseAddrPort("127.0.0.1:9")
	for _, ep := range []*Endpoint{serverA.Load(), serverB.Load()} {
	fill:
		for {
			buf := readBufs.get()[:]
			select {
			case ep.shard.in <- rawPacket{ep: ep, from: junk, buf: buf[:copy(buf, "junk")]}:
			default:
				readBufs.put(buf)
				break fill
			}
		}
	}
	close(release)
	for i := 0; i < 2; i++ {
		select {
		case <-fins:
		case <-time.After(10 * time.Second):
			t.Fatalf("responses: %d and %d of %d bytes", recvd[0].Load(), recvd[1].Load(), size)
		}
	}
	if recvd[0].Load() != size || recvd[1].Load() != size {
		t.Fatalf("responses: %d and %d of %d bytes", recvd[0].Load(), recvd[1].Load(), size)
	}
}

// TestLivePostFromAnAppliedOp: code running inside an op the shard applies
// posts to its own shard — a Stream.Write, then a second op — and the
// shard applies both, in the order posted. post never blocks, so a callback
// may post to its own shard; a shard that held its FIFO's lock while it
// applied ops would wait for itself here (scripts/check.sh runs this under
// -race). The endpoint is closed only once the second op has run: Close is
// itself a post, and on a shard stuck that way it would hang the test
// instead of failing it.
func TestLivePostFromAnAppliedOp(t *testing.T) {
	ep, err := Listen("127.0.0.1:0", LiveConfig{Scheme: SchemeXLINK, Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	buffered := make(chan uint64, 1)
	ep.post(op{kind: opCall, ep: ep, fn: func() {
		ep.StreamFor(3).Write([]byte("hello"))
		ep.post(op{kind: opCall, ep: ep, fn: func() { buffered <- ep.conn.Stream(3).Buffered() }})
	}})
	select {
	case n := <-buffered:
		ep.Close()
		if n != 5 {
			t.Fatalf("stream holds %d bytes after the 5-byte Write posted before it", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an op posted from an applied op never ran: the shard waits for itself")
	}
}

// TestAllocGateLiveOp: once the pools and the shard's FIFO are warm, a
// Write and a Close from a goroutine that is no shard's — a copy into a
// pooled chunk, two ops posted and the shard woken, then applied in a turn
// that gives the chunk back — allocate nothing (scripts/check.sh runs every TestAllocGate*). The stream
// is finished after the first Close, so the transport drops the later
// writes and the count is the ops' own.
func TestAllocGateLiveOp(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("measures allocations of a pooled path")
	}
	ep := listenIdle(t, 81, nil)
	st := ep.StreamFor(3)
	data := make([]byte, 1000)
	// Waiting for the shard to apply them, with an op built once, gives the
	// chunk back before the next Write takes one.
	applied := make(chan struct{}, 1)
	wait := op{kind: opCall, ep: ep, fn: func() { applied <- struct{}{} }}
	writeClose := func() {
		st.Write(data)
		st.Close()
		ep.post(wait)
		<-applied
	}
	for i := 0; i < 16; i++ {
		writeClose()
	}
	if avg := testing.AllocsPerRun(200, writeClose); avg != 0 {
		t.Fatalf("a foreign Write and Close allocate %.1f", avg)
	}
}

// TestLiveWriteFrameTagsOnlyWhatItWrote: a frame copied in several chunks is
// tagged once, over all of them, and a WriteFrame on a finished stream,
// which the stream drops, tags nothing: the untagged bytes written before it
// keep their priority. The stream's tags are read on the shard.
func TestLiveWriteFrameTagsOnlyWhatItWrote(t *testing.T) {
	ep := listenIdle(t, 82, nil)
	st := ep.OpenStream()
	st.Write([]byte("ab"))
	st.WriteFrame(make([]byte, 2*writeChunkSize+1), 3)
	st.Write([]byte("tail"))
	st.Close()
	st.WriteFrame([]byte("late"), 0)
	var written uint64
	var tags string
	ep.onShard(func() {
		s := ep.conn.Stream(st.ID())
		written = s.Buffered()
		tags = fmt.Sprint(reflect.ValueOf(s).Elem().FieldByName("frames"))
	})
	if want := fmt.Sprint([]transport.FrameRange{{Start: 2, End: 2*writeChunkSize + 3, Prio: 3}}); written != 2*writeChunkSize+7 || tags != want {
		t.Fatalf("stream holds %d bytes tagged %s, want %d tagged %s", written, tags, 2*writeChunkSize+7, want)
	}
}

// TestLiveWriteBacklogBoundsAForeignWriter: a goroutine that is no shard's
// writes 16 MiB as fast as it can. Each Write waits while the endpoint's
// backlog — posted and unapplied bytes plus the send buffer — is over
// writeBacklog, so the backlog never exceeds it by more than a Write and
// what one turn applied, and every byte arrives.
func TestLiveWriteBacklogBoundsAForeignWriter(t *testing.T) {
	const size, chunk = 16 << 20, 48 << 10
	var got atomic.Uint64
	fin := make(chan struct{})
	server, err := Listen("127.0.0.1:0", LiveConfig{
		Scheme: SchemeXLINK, Seed: 83,
		OnStreamData: func(_ time.Duration, _ *RecvStream, data []byte, f bool) {
			got.Add(uint64(len(data)))
			if f {
				close(fin)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Dial(server.LocalAddrs()[0].String(), []string{"127.0.0.1:0"},
		[]Technology{TechWiFi}, LiveConfig{Scheme: SchemeXLINK, Seed: 84})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitFor(t, 10*time.Second, client.Established, "handshake")
	st := client.OpenStream()
	data := make([]byte, chunk)
	var peak int64
	for sent := 0; sent < size; sent += chunk {
		st.Write(data)
		client.snapMu.Lock()
		peak = max(peak, client.backlogLocked())
		client.snapMu.Unlock()
	}
	st.Close()
	select {
	case <-fin:
	case <-time.After(60 * time.Second):
		t.Fatalf("%d of %d bytes arrived", got.Load(), size)
	}
	if peak > writeBacklog+1<<20 {
		t.Fatalf("the backlog reached %d KiB, bound %d KiB", peak>>10, writeBacklog>>10)
	}
}

// TestLiveBacklogCountsBytesATurnApplied: a Write's bytes leave the posted
// count for the connection's send buffer, which the snapshot shows only once
// the turn publishes; the backlog counts them all the while, so a foreign
// writer never sees them vanish. The write op is applied on the shard by
// hand, so the backlog is read inside the turn that applied it.
func TestLiveBacklogCountsBytesATurnApplied(t *testing.T) {
	const n = 1000
	ep := listenIdle(t, 87, nil)
	id := ep.OpenStream().ID()
	backlog := func() int64 {
		ep.snapMu.Lock()
		defer ep.snapMu.Unlock()
		return ep.backlogLocked()
	}
	var applied int64
	ep.onShard(func() {
		ep.queued.Add(n) // as postWrite counts the Write it posts
		o := op{kind: opWrite, ep: ep, id: id, buf: writeChunks.get()[:n]}
		o.apply()
		applied = backlog()
	})
	if applied != n {
		t.Fatalf("the backlog read %d bytes in the turn that applied a %d-byte Write", applied, n)
	}
	// An op posted now runs in a later turn, after this one published.
	ep.onShard(func() {})
	if got, buffered := backlog(), ep.Stats().SendBufferedBytes; got != n || buffered != n {
		t.Fatalf("published: backlog %d bytes, send buffer %d, want %d both", got, buffered, n)
	}
}

// TestLiveCallbackWritesPastTheBacklog: a callback that writes far more than
// writeBacklog to its own endpoint, one Write at a time, never waits — it
// runs on the shard that would have to drain the backlog — and every byte
// arrives.
func TestLiveCallbackWritesPastTheBacklog(t *testing.T) {
	const writes, chunk = 12, 1 << 20
	var server *Endpoint
	ready := make(chan struct{})
	server, err := Listen("127.0.0.1:0", LiveConfig{
		Scheme: SchemeXLINK, Seed: 85,
		OnStreamData: func(_ time.Duration, s *RecvStream, _ []byte, fin bool) {
			if !fin {
				return
			}
			<-ready
			st := server.StreamFor(s.ID())
			data := make([]byte, chunk)
			for i := 0; i < writes; i++ {
				st.Write(data)
			}
			st.Close()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	close(ready)
	defer server.Close()
	var got atomic.Uint64
	fin := make(chan struct{})
	client, err := Dial(server.LocalAddrs()[0].String(), []string{"127.0.0.1:0"},
		[]Technology{TechWiFi}, LiveConfig{
			Scheme: SchemeXLINK, Seed: 86,
			OnStreamData: func(_ time.Duration, _ *RecvStream, data []byte, f bool) {
				got.Add(uint64(len(data)))
				if f {
					close(fin)
				}
			},
		})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitFor(t, 10*time.Second, client.Established, "handshake")
	req := client.OpenStream()
	req.Write([]byte("go"))
	req.Close()
	select {
	case <-fin:
	case <-time.After(60 * time.Second):
		t.Fatalf("%d of %d bytes arrived", got.Load(), writes*chunk)
	}
	if got.Load() != writes*chunk {
		t.Fatalf("%d of %d bytes arrived", got.Load(), writes*chunk)
	}
}
