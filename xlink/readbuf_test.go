package xlink

import (
	"bytes"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"repro/internal/assert"
)

// heapAfterGC returns the bytes still reachable after two collections. One
// is not enough: what a sync.Pool held (stream segments, read buffers)
// survives one cycle in the pool's victim cache.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestIdleGroupHoldsNoReadBuffers: socket read buffers belong to the
// process-wide pool, not to a group. A new group allocates none (it used to
// fill 64 per shard), and the buffers a burst of datagrams took and gave
// back are gone after two collections.
func TestIdleGroupHoldsNoReadBuffers(t *testing.T) {
	base := heapAfterGC()
	g := NewEventLoopGroup(2)
	defer func() { g.Close(); g.Wait() }()
	if grown := heapAfterGC() - base; grown > 32<<10 {
		t.Errorf("an idle two-shard group holds %d KiB", grown>>10)
	}
	bufs := make([][]byte, 4*liveBatchSize)
	for k := range bufs {
		bufs[k] = readBufs.get()[:]
	}
	for _, b := range bufs {
		readBufs.put(b)
	}
	clear(bufs)
	if grown := heapAfterGC() - base; grown > 32<<10 {
		t.Errorf("%d read buffers given back hold %d KiB after two collections", len(bufs), grown>>10)
	}
}

// TestKeptReadBufferReadsPoison: the transport does not keep a datagram past
// HandleDatagram, so the shard gives its buffer back to the pool right after
// delivering it. Under xlinkdebug the buffer is overwritten on the way, so a
// consumer that kept the slice reads 0xdb, not the next datagram.
func TestKeptReadBufferReadsPoison(t *testing.T) {
	if !assert.Enabled {
		t.Skip("read buffers are poisoned only under -tags xlinkdebug")
	}
	ep, err := Listen("127.0.0.1:0", LiveConfig{Scheme: SchemeXLINK, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	buf := readBufs.get()[:]
	kept := buf[:copy(buf, "not a QUIC packet")]
	ep.onShard(func() {
		ep.shard.batch = append(ep.shard.batch, rawPacket{ep: ep, from: netip.MustParseAddrPort("127.0.0.1:9"), buf: kept})
		ep.shard.ingest()
	})
	if want := bytes.Repeat([]byte{0xdb}, len(kept)); !bytes.Equal(kept, want) {
		t.Fatalf("a datagram kept past its delivery reads %q, want poison", kept)
	}
}

// BenchmarkReadBufferTakeReturn prices a read buffer's round trip per
// datagram: the reader takes it, the shard gives it back. serial runs both
// on one goroutine; parallel runs the pair on every P at once.
func BenchmarkReadBufferTakeReturn(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			readBufs.put(readBufs.get()[:])
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				readBufs.put(readBufs.get()[:])
			}
		})
	})
}

// TestAllocGateLiveShardTurn gates a warm request/response over loopback at
// the shard turn's budget (scripts/check.sh runs every TestAllocGate*). Each
// exchange runs every stage of the live plane on both endpoints: the
// client's Write is an op on its shard's FIFO, readLoop takes a buffer from
// readBufs per datagram and posts it, the shard goroutine drains its turn
// (EventLoopGroup.run), ingest groups it by endpoint and hands each run to
// the transport, whose data callback runs inline and posts the echo, the
// turn applies the ops and releases, and the buffers go back to the pool.
// The count is process-wide, so it covers the socket readers and shard
// goroutines, not just the caller.
func TestAllocGateLiveShardTurn(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("measures allocations of a pooled path")
	}
	if assert.Enabled {
		t.Skip("xlinkdebug: the transport's per-packet assertions allocate by design")
	}
	var server *Endpoint
	serverReady := make(chan struct{})
	server, err := Listen("127.0.0.1:0", LiveConfig{
		Scheme: SchemeXLINK, Seed: 41,
		OnStreamData: func(_ time.Duration, s *RecvStream, data []byte, _ bool) {
			<-serverReady
			server.StreamFor(s.ID()).Write(data) // echo
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	close(serverReady)
	defer server.Close()
	// One send per data callback; an echo may arrive in several, and the
	// buffer keeps the client's shard from waiting on this goroutine.
	echoed := make(chan int, 16)
	client, err := Dial(server.LocalAddrs()[0].String(), []string{"127.0.0.1:0"},
		[]Technology{TechWiFi}, LiveConfig{
			Scheme: SchemeXLINK, Seed: 42,
			OnStreamData: func(_ time.Duration, _ *RecvStream, data []byte, _ bool) { echoed <- len(data) },
		})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	waitFor(t, 10*time.Second, client.Established, "handshake")
	st := client.OpenStream()
	req := make([]byte, 64)
	exchange := func() {
		st.Write(req)
		for n := 0; n < len(req); {
			n += <-echoed
		}
	}
	for i := 0; i < 64; i++ {
		exchange()
	}
	before := server.Stats().RecvPackets
	if avg := testing.AllocsPerRun(200, exchange); avg != 0 {
		t.Fatalf("a warm 64-byte echo over loopback allocates %.1f, want 0", avg)
	}
	if got := server.Stats().RecvPackets - before; got < 201 {
		t.Fatalf("the server received %d datagrams in 201 exchanges", got)
	}
}
