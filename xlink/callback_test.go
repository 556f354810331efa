package xlink

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// Tests for the deferred callback queue (DESIGN.md §16): the transport lends
// OnStreamData its bytes for the call only, so the endpoint copies them into
// an arena before it queues the user's callback, the queue holds values, and
// both are borrowed from a pool only while something is queued.

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// liveByte is the content of the test payload at offset k.
func liveByte(k uint64) byte { return byte(k*2654435761>>9) ^ byte(k>>13) }

// TestLiveDataCallbacksKeepOrderAndContent moves a few megabytes from server
// to client over loopback while a second client goroutine uploads on streams
// of its own, so transport calls and callback flushes of the same endpoint
// interleave across goroutines (scripts/check.sh runs it under -race). Every
// delivered byte must arrive in order and intact: the data a deferred
// callback reads is the endpoint's copy, not the transport's buffer, which
// goes back to the segment pool — where the uploads take their segments from
// — as soon as the transport call returns.
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

	var got, bad atomic.Uint64
	var callbacks atomic.Int64
	done := make(chan struct{})
	client, err := Dial(server.LocalAddrs()[0].String(), []string{"127.0.0.1:0", "127.0.0.1:0"},
		[]Technology{TechWiFi, TechLTE}, LiveConfig{
			Scheme: SchemeXLINK, Seed: 30,
			OnStreamData: func(_ time.Duration, _ *RecvStream, data []byte, fin bool) {
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
		t.Errorf("timed out with %d of %d bytes", got.Load(), size)
	}
	close(stop)
	writer.Wait()
	if n := got.Load(); n != size || bad.Load() != 0 {
		t.Fatalf("delivered %d of %d bytes in %d callbacks, %d of them wrong", n, size, callbacks.Load(), bad.Load())
	}
}

// TestAllocGateLiveCallbackQueue: once the batch pool is warm, queuing a
// data callback under the lock and running it after allocates nothing
// (scripts/check.sh runs every TestAllocGate*). Each one used to cost a
// closure.
func TestAllocGateLiveCallbackQueue(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("measures allocations of a pooled path")
	}
	ep := newEndpoint(nil)
	var tcfg transport.Config
	delivered := 0
	applyLive(ep, &tcfg, LiveConfig{
		OnStreamData: func(_ time.Duration, _ *RecvStream, data []byte, _ bool) { delivered += len(data) },
	})
	data := make([]byte, 1200)
	queue := func() {
		ep.mu.Lock()
		for i := 0; i < 4; i++ {
			tcfg.OnStreamData(0, nil, data, false)
		}
		ep.mu.Unlock()
		ep.flushCallbacks()
	}
	for i := 0; i < 16; i++ {
		queue()
	}
	if avg := testing.AllocsPerRun(200, queue); avg != 0 {
		t.Fatalf("queuing four data callbacks and running them allocates %.1f", avg)
	}
	if delivered != (16+201)*4*len(data) || ep.cbQ != nil {
		t.Fatalf("%d bytes delivered; batch held after the flush: %v", delivered, ep.cbQ != nil)
	}
}

// TestCloseGivesTheArenaBack: callbacks still queued when the endpoint
// closes run from Close, in order, and the batch whose arena kept their
// bytes goes back to the pool instead of staying with the closed endpoint.
func TestCloseGivesTheArenaBack(t *testing.T) {
	ep := newEndpoint(nil)
	var tcfg transport.Config
	var got []byte
	applyLive(ep, &tcfg, LiveConfig{
		OnStreamData: func(_ time.Duration, _ *RecvStream, data []byte, _ bool) { got = append(got, data...) },
	})
	ep.mu.Lock()
	tcfg.OnStreamData(0, nil, []byte("queued "), false)
	tcfg.OnStreamData(0, nil, []byte("before close"), true)
	held := ep.cbQ != nil && len(ep.cbQ.arena) == len("queued before close")
	ep.mu.Unlock()
	if !held {
		t.Fatal("queued data callbacks hold no copy of their bytes")
	}
	ep.Close()
	if string(got) != "queued before close" || ep.cbQ != nil {
		t.Fatalf("after Close: ran %q, batch held %v", got, ep.cbQ != nil)
	}
}
