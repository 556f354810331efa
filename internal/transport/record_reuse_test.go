package transport

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/wire"
)

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// recordCensus counts the packet-record storage a pair's connections take
// from the heap: with the record pool emptied first and the collector held
// off, every record, packetMeta and chunk array that enters a path's ledger is
// one Acquire or packetRecord allocated unless it was seen before. A record
// stays in its ledger from the send pass that filled it until a
// loss-detection call on a later event trims it, so a look at the ledgers
// after each event sees them all.
type recordCensus struct {
	seen map[unsafe.Pointer]bool
	news int
}

func (rc *recordCensus) note(p unsafe.Pointer) {
	if p != nil && !rc.seen[p] {
		rc.seen[p] = true
		rc.news++
	}
}

func (rc *recordCensus) look(conns ...*Conn) {
	for _, c := range conns {
		for _, id := range c.pathOrder {
			for _, sp := range c.paths[id].Space.SentFrom(0) {
				rc.note(unsafe.Pointer(sp))
				if meta, ok := sp.Meta.(*packetMeta); ok {
					rc.note(unsafe.Pointer(meta))
					rc.note(unsafe.Pointer(unsafe.SliceData(meta.chunks)))
				}
			}
		}
	}
}

// TestAllocGateRecordReusedByNextPass runs request/response exchanges shaped
// like live-rr's on a two-path sim Pair: the client writes a 64 B request and
// its FIN, and the server's data callback answers with a FIN-terminated
// response — 1 000 B, and every fifth time a 64 KiB chunk. After warm-up the
// exchanges make no record (recovery.RecordsMade) and take no packetMeta or
// chunk array that was not taken before: Acquire and packetRecord allocate
// nothing, because handleLost gives the records a loss-detection call retired
// back to the pool as soon as it has reacted to the result, so the response
// sent right after an ACK rides on the records that ACK resolved. From
// warm-up on the collector, which empties the pool, is held off, and one P
// runs the test, since each P's private pool slot is invisible from the
// others; under -race the pool drops records on purpose.
func TestAllocGateRecordReusedByNextPass(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: the record pool drops records on purpose")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Two collections empty the pool of what earlier tests left in it, so
	// that every record the census meets is one this pair made.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	params := wire.DefaultTransportParams()
	params.EnableMultipath = true
	ccfg := Config{Params: params, Seed: 11}
	scfg := Config{Params: params, Seed: 12}
	var pair *Pair
	tiny, chunk := make([]byte, 1000), make([]byte, 64<<10)
	requests := 0
	scfg.OnStreamData = func(_ time.Duration, rs *RecvStream, _ []byte, fin bool) {
		if fin {
			st := pair.Server.Stream(rs.ID())
			requests++
			if requests%5 == 0 {
				st.Write(chunk)
			} else {
				st.Write(tiny)
			}
			st.Close()
		}
	}
	done := false
	ccfg.OnStreamData = func(_ time.Duration, _ *RecvStream, _ []byte, fin bool) { done = done || fin }
	pair = NewPair(sim.NewLoop(), sim.NewRNG(13),
		TwoPathConfig(100, 50, 10*time.Millisecond, 30*time.Millisecond), ccfg, scfg)
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(time.Second)
	if !pair.Client.Established() {
		t.Fatal("pair did not establish")
	}
	rc := &recordCensus{seen: map[unsafe.Pointer]bool{}}
	req := make([]byte, 64)
	exchange := func() {
		st := pair.Client.OpenStream()
		st.Write(req)
		st.Close()
		for done = false; !done; rc.look(pair.Client, pair.Server) {
			if !pair.Loop.Step() {
				t.Fatal("the loop ran dry before the response finished")
			}
		}
	}
	for i := 0; i < 100; i++ {
		exchange()
	}
	warm, made := rc.news, recovery.RecordsMade()
	const n = 200
	for i := 0; i < n; i++ {
		exchange()
	}
	made = recovery.RecordsMade() - made
	t.Logf("%d records, metas and chunk arrays after warm-up, %d more and %d records made in %d exchanges", warm, rc.news-warm, made, n)
	if got := rc.news - warm; got != 0 || made != 0 {
		t.Fatalf("%d warm exchanges made %d records and took %d new records, metas or chunk arrays, want 0", n, made, got)
	}
}

// TestPairsOnTwoGoroutinesShareTheRecordPool: two sim pairs, each on its own
// loop and goroutine as fleet workers run them, take packet records from and
// give them back to the one process-wide pool. Each moves 4 MiB over two lossy
// paths with re-injection on, so records are acknowledged, declared lost and
// re-sent, and every delivered byte is checked against the stream's content.
// Under -tags xlinkdebug a record is poisoned as it goes back to the pool and
// recovery asserts that no result names one; under -race this is also the
// check that the pool hands a record from one goroutine to the other without
// a data race.
func TestPairsOnTwoGoroutinesShareTheRecordPool(t *testing.T) {
	const size = 4 << 20
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ccfg, scfg := defaultMPConfig()
			scfg.ReinjectionMode = ReinjectStreamPriority
			var got uint64
			var finished, corrupt bool
			ccfg.OnStreamData = func(_ time.Duration, _ *RecvStream, data []byte, fin bool) {
				for i, b := range data {
					if b != streamByte(got+uint64(i)) {
						corrupt = true
					}
				}
				got += uint64(len(data))
				finished = finished || fin
			}
			paths := TwoPathConfig(200, 100, 10*time.Millisecond, 30*time.Millisecond)
			paths[0].LossRate, paths[1].LossRate = 0.01, 0.01
			pair := NewPair(sim.NewLoop(), sim.NewRNG(int64(40+g)), paths, ccfg, scfg)
			if err := pair.Start(); err != nil {
				t.Error(err)
				return
			}
			data := make([]byte, size)
			fillStream(data, 0)
			st := pair.Server.OpenStream()
			st.Write(data)
			st.Close()
			pair.RunUntil(60 * time.Second)
			if srv := pair.Server.Stats(); !finished || got != size || corrupt || srv.RtxBytesSent == 0 {
				t.Errorf("pair %d: received %d of %d bytes, finished %v, corrupt %v, %d bytes retransmitted",
					g, got, size, finished, corrupt, srv.RtxBytesSent)
			}
		}()
	}
	wg.Wait()
}
