package xlink

import (
	"bytes"
	"net/netip"
	"runtime"
	"testing"

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
		bufs[k] = getReadBuf()
	}
	for _, b := range bufs {
		putReadBuf(b)
	}
	clear(bufs)
	if grown := heapAfterGC() - base; grown > 32<<10 {
		t.Errorf("%d read buffers given back hold %d KiB after two collections", len(bufs), grown>>10)
	}
}

// TestKeptReadBufferReadsPoison: the transport does not keep a datagram past
// HandleDatagramBatch, so the shard gives its buffer back to the pool right
// after the batch. Under xlinkdebug the buffer is overwritten on the way, so
// a consumer that kept the slice reads 0xdb, not the next datagram.
func TestKeptReadBufferReadsPoison(t *testing.T) {
	if !assert.Enabled {
		t.Skip("read buffers are poisoned only under -tags xlinkdebug")
	}
	ep, err := Listen("127.0.0.1:0", LiveConfig{Scheme: SchemeXLINK, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	buf := getReadBuf()
	kept := buf[:copy(buf, "not a QUIC packet")]
	pkts := make([][]byte, 0, liveBatchSize)
	batch := []rawPacket{{ep: ep, from: netip.MustParseAddrPort("127.0.0.1:9"), buf: kept}}
	dispatch(batch, &pkts)
	if want := bytes.Repeat([]byte{0xdb}, len(kept)); !bytes.Equal(kept, want) {
		t.Fatalf("a datagram kept past its batch reads %q, want poison", kept)
	}
}

// BenchmarkReadBufferTakeReturn prices a read buffer's round trip per
// datagram: the reader takes it, the shard gives it back. serial runs both
// on one goroutine; parallel runs the pair on every P at once.
func BenchmarkReadBufferTakeReturn(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			putReadBuf(getReadBuf())
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				putReadBuf(getReadBuf())
			}
		})
	})
}
