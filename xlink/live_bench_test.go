package xlink

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests and benchmarks for the sharded live event loop (DESIGN.md §16).
// The ISSUE's nominal 10k-connection fleet is infeasible under the default
// file-descriptor limit (each client pair costs 3 sockets and the process
// cap is ~1024), so the fleet here is modest and the scaling claim is about
// the shape: N endpoints share a fixed number of event-loop goroutines, so
// processing cost grows with traffic, not with endpoint count.

// fleetPair is one live client/server connection through a shared group.
type fleetPair struct {
	server, client *Endpoint
	recvBytes      atomic.Uint64
	fins           atomic.Uint64
}

// newFleet dials n live pairs over loopback, all sharing group (nil gives
// each endpoint its private single-shard group). Every pair is established
// before return.
func newFleet(tb testing.TB, n int, group *EventLoopGroup) []*fleetPair {
	tb.Helper()
	pairs := make([]*fleetPair, n)
	for i := range pairs {
		fp := &fleetPair{}
		pairs[i] = fp
		server, err := Listen("127.0.0.1:0", LiveConfig{
			Scheme: SchemeXLINK,
			Loops:  group,
			OnStreamData: func(now time.Duration, s *RecvStream, data []byte, fin bool) {
				fp.recvBytes.Add(uint64(len(data)))
				if fin {
					fp.fins.Add(1)
				}
			},
			Seed: int64(100 + i),
		})
		if err != nil {
			tb.Fatal(err)
		}
		fp.server = server
		handshake := make(chan struct{})
		client, err := Dial(server.LocalAddrs()[0].String(),
			[]string{"127.0.0.1:0", "127.0.0.1:0"},
			[]Technology{TechWiFi, TechLTE}, LiveConfig{
				Scheme:          SchemeXLINK,
				Loops:           group,
				OnHandshakeDone: func(now time.Duration) { close(handshake) },
				Seed:            int64(200 + i),
			})
		if err != nil {
			server.Close()
			tb.Fatal(err)
		}
		fp.client = client
		select {
		case <-handshake:
		case <-time.After(10 * time.Second):
			tb.Fatalf("pair %d: handshake timed out", i)
		}
	}
	return pairs
}

func closeFleet(pairs []*fleetPair) {
	for _, fp := range pairs {
		fp.client.Close()
		fp.server.Close()
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(tb testing.TB, d time.Duration, cond func() bool, what string) {
	tb.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			tb.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLiveShardedEventLoop drives a fleet of live connections through one
// shared multi-shard EventLoopGroup concurrently — writers on their own
// goroutines, shard goroutines batching into the transports, endpoints
// closing while the group keeps serving the rest. scripts/check.sh runs
// this under -race: the channel handoff between socket readers and shard
// loops, the ops foreign writers post to the shards' FIFOs, and the group
// lifecycle are exactly the kind of concurrency the detector must see clean.
//
// The accessor pollers check that a value reader reads the snapshot, never
// the shard-owned connection: each reader is called from its own foreign
// goroutine — one reader per goroutine, so that no neighbouring call orders
// the read by accident — from before the first stream byte until after the
// endpoints have closed, which spans every snapshot the shards publish
// (counters per turn, the state at close). A reader that touched the
// connection instead of the snapshot is a race report here, not a matter of
// timing. The goroutine count at the end is the leak check: every socket
// reader Listen and Dial started and every shard loop must be gone once the
// endpoints and the group are closed.
func TestLiveShardedEventLoop(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	group := NewEventLoopGroup(4)
	const pairs = 6
	fleet := newFleet(t, pairs, group)
	defer closeFleet(fleet)

	stopPolling := make(chan struct{})
	var pollers sync.WaitGroup
	stopPollers := sync.OnceFunc(func() { close(stopPolling); pollers.Wait() })
	defer stopPollers() // a t.Fatal on the way must not leave them spinning
	poll := func(read func()) {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stopPolling:
					return
				default:
					read()
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	for _, fp := range fleet {
		for _, ep := range []*Endpoint{fp.client, fp.server} {
			ep := ep
			poll(func() { _ = ep.StateName() })
			poll(func() { _ = ep.Terminated() })
			poll(func() { _ = ep.Stats() })
			poll(func() { _ = ep.LocalAddrs() })
		}
	}

	const payload = 96 << 10
	msg := make([]byte, payload)
	for i := range msg {
		msg[i] = byte(i)
	}
	var wg sync.WaitGroup
	for _, fp := range fleet {
		fp := fp
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := fp.client.OpenStream()
			st.SetPriority(1)
			// Chunked writes from a foreign goroutine: each is a copy posted
			// to the shard's FIFO, the only thing between this writer and
			// the shard loops.
			for off := 0; off < payload; off += 8 << 10 {
				end := off + 8<<10
				if end > payload {
					end = payload
				}
				st.Write(msg[off:end])
			}
			st.Close()
		}()
	}
	wg.Wait()
	for i, fp := range fleet {
		fp := fp
		waitFor(t, 20*time.Second, func() bool { return fp.fins.Load() == 1 },
			fmt.Sprintf("pair %d fin (got %d bytes)", i, fp.recvBytes.Load()))
		if got := fp.recvBytes.Load(); got != payload {
			t.Errorf("pair %d: server received %d bytes, want %d", i, got, payload)
		}
	}

	closeFleet(fleet)
	stopPollers()
	group.Close()
	group.Close() // idempotent
	done := make(chan struct{})
	go func() { group.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("shard goroutines did not exit after group Close")
	}
	waitFor(t, 5*time.Second, func() bool { return runtime.NumGoroutine() <= goroutinesBefore },
		"the socket readers and shard loops to exit")
}

// BenchmarkLiveFleetEndpoints measures aggregate live throughput through a
// shared per-core EventLoopGroup: b.N messages of 1200 bytes spread
// round-robin over the fleet, timed until every byte has landed in a server
// callback. ns/op is the fleet-wide per-message cost of the sharded live
// plane.
func BenchmarkLiveFleetEndpoints(b *testing.B) {
	group := NewEventLoopGroup(0) // one shard per core
	defer group.Close()
	const pairs = 16
	fleet := newFleet(b, pairs, group)
	defer closeFleet(fleet)

	msg := make([]byte, 1200)
	streams := make([]Stream, pairs)
	for i, fp := range fleet {
		streams[i] = fp.client.OpenStream()
	}
	total := func() uint64 {
		var n uint64
		for _, fp := range fleet {
			n += fp.recvBytes.Load()
		}
		return n
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		streams[i%pairs].Write(msg)
	}
	want := uint64(b.N) * uint64(len(msg))
	deadline := time.Now().Add(2 * time.Minute)
	for total() < want {
		if time.Now().After(deadline) {
			var report strings.Builder
			for i, fp := range fleet {
				share := uint64(b.N/pairs) * uint64(len(msg))
				if i < b.N%pairs {
					share += uint64(len(msg))
				}
				fmt.Fprintf(&report, "\n  pair %d: %s", i, fp.progress(share))
			}
			b.Fatalf("delivered %d of %d bytes before deadline:%s", total(), want, report.String())
		}
		time.Sleep(time.Millisecond)
	}
	b.StopTimer()
}

// progress says how far a fleet pair got: the bytes its server delivered
// against its share, and for each endpoint its state, the packets it sent
// and lost, and the bytes its send buffers hold.
func (fp *fleetPair) progress(share uint64) string {
	side := func(ep *Endpoint) string {
		st, card := ep.Stats(), ep.Scorecard()
		var lost uint64
		for _, p := range card.Paths[:card.NumPaths] {
			lost += p.LostPackets
		}
		return fmt.Sprintf("%s, sent %d lost %d packets, %d bytes buffered",
			ep.StateName(), st.SentPackets, lost, st.SendBufferedBytes)
	}
	return fmt.Sprintf("delivered %d of %d bytes; client %s; server %s",
		fp.recvBytes.Load(), share, side(fp.client), side(fp.server))
}

// BenchmarkLiveTinyExchange prices one tiny exchange over loopback end to
// end — a 64 B request and its FIN from the calling goroutine, a 1 000 B
// response and its FIN from the server's data callback — and reports what
// allocs_per_pkt hides by dividing by server datagrams: datagrams per
// exchange on each side and allocations per exchange, counted process-wide
// (socket readers, shard goroutines and timers included).
func BenchmarkLiveTinyExchange(b *testing.B) {
	tp := newTinyPair(b, 71)
	req := make([]byte, 64)
	for i := 0; i < 16; i++ {
		tp.exchange(b, req)
	}
	srv0, cli0 := tp.server.Stats().SentPackets, tp.client.Stats().SentPackets
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.exchange(b, req)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	n := float64(b.N)
	b.ReportMetric(float64(tp.server.Stats().SentPackets-srv0)/n, "server-dgrams/exchange")
	b.ReportMetric(float64(tp.client.Stats().SentPackets-cli0)/n, "client-dgrams/exchange")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/n, "allocs/exchange")
}
