package transport

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/wire"
)

// recordCensus counts the packet-record storage a pair's connections take
// from the heap: every record, packetMeta and chunk array that enters a
// path's ledger is one the Space or packetRecord allocated unless it was seen
// before. A record stays in its ledger from the send pass that filled it until
// a loss-detection call on a later event trims it, so a look at the ledgers
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
// exchanges take no record, packetMeta or chunk array that was not taken
// before: Space.Acquire and packetRecord allocate nothing, because handleLost
// frees the records a loss-detection call retired as soon as it has reacted to
// the result, so the response sent right after an ACK rides on the records
// that ACK resolved. Freed one loss-detection call later, they are still
// retired when the burst that opens a chunk is sent: 120 new records, metas
// and chunk arrays in the 200 exchanges, while the peak cap drops as many.
func TestAllocGateRecordReusedByNextPass(t *testing.T) {
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
	warm := rc.news
	const n = 200
	for i := 0; i < n; i++ {
		exchange()
	}
	t.Logf("%d records, metas and chunk arrays after warm-up, %d more in %d exchanges", warm, rc.news-warm, n)
	if got := rc.news - warm; got != 0 {
		t.Fatalf("%d warm exchanges took %d new records, metas or chunk arrays, want 0", n, got)
	}
}
