package transport

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/assert"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Tests for the hot-path scratch/caching work of DESIGN.md §11: the cached
// stream ordering must be indistinguishable from a full sort, and buffer
// reuse must never corrupt data during the call that lends it.

// TestStreamOrderCacheMatchesSort checks the (priority, ID) stream order,
// kept in place, against a reference sort across creation,
// re-prioritization and retirement.
func TestStreamOrderCacheMatchesSort(t *testing.T) {
	var got uint64
	pair := benchPair(t, &got)
	c := pair.Client

	ref := func() []*SendStream {
		out := make([]*SendStream, 0, len(c.sendStreams))
		for _, s := range c.sendStreams {
			if !s.retired {
				out = append(out, s)
			}
		}
		for i := 1; i < len(out); i++ { // insertion sort, independent impl
			for j := i; j > 0; j-- {
				a, b := out[j-1], out[j]
				if a.prio < b.prio || (a.prio == b.prio && a.id < b.id) {
					break
				}
				out[j-1], out[j] = out[j], out[j-1]
			}
		}
		return out
	}
	check := func(step string) {
		t.Helper()
		gotOrder := c.streamsInOrder()
		want := ref()
		if len(gotOrder) != len(want) {
			t.Fatalf("%s: %d streams in order, want %d", step, len(gotOrder), len(want))
		}
		for i := range want {
			if gotOrder[i] != want[i] {
				t.Fatalf("%s: stream order differs at %d: got id=%d want id=%d",
					step, i, gotOrder[i].id, want[i].id)
			}
		}
	}

	s4 := c.Stream(4)
	s8 := c.Stream(8)
	c.Stream(12)
	check("three streams, default priorities")

	s8.SetPriority(-1) // jump ahead of everything
	check("stream 8 promoted")

	s4.SetPriority(-1) // tie with s8: ID breaks it
	check("priority tie")

	c.Stream(2) // inserted between the promoted streams and stream 12
	check("fourth stream added")

	c.retireStream(s4) // cut out of the order in place
	check("stream 4 retired")

	s8.SetPriority(7) // moving a stream must not bring the retired one back
	check("moved after a retirement")

	s4.SetPriority(3) // a retired stream has no place to move to
	check("retired stream re-prioritized")
}

// TestDeliveredDataIsBorrowed asserts the receive side's copy-on-retain
// contract end to end: OnStreamData's data is valid for the call only. The
// bytes come out of a reused decrypt scratch into stream segments that go
// back to the shared pool once the callback has returned, or are gathered
// into a pooled buffer when a run crosses segments. A callback that copies
// must get every byte exactly; under xlinkdebug, where a released segment or
// gather buffer is overwritten with 0xdb, slices kept past the call must read
// poison once later deliveries released what they alias.
func TestDeliveredDataIsBorrowed(t *testing.T) {
	params := wire.DefaultTransportParams()
	params.EnableMultipath = true
	ccfg := Config{Params: params, Seed: 1, MaxAckDelay: time.Millisecond}
	scfg := Config{Params: params, Seed: 2, MaxAckDelay: time.Millisecond}
	var gotBytes []byte
	var kept [][]byte // retained without a copy, against the contract
	scfg.OnStreamData = func(now time.Duration, s *RecvStream, data []byte, fin bool) {
		gotBytes = append(gotBytes, data...)
		kept = append(kept, data)
	}
	loop := sim.NewLoop()
	pair := NewPair(loop, sim.NewRNG(7),
		TwoPathConfig(200, 200, 2*time.Millisecond, 6*time.Millisecond), ccfg, scfg)
	if err := pair.Start(); err != nil {
		t.Fatal(err)
	}
	pair.RunUntil(500 * time.Millisecond)
	if !pair.Client.Established() {
		t.Fatal("pair did not establish")
	}

	// Distinctly patterned chunks, each spanning several packets, over more
	// than four segments: the stream's own later segments can come from
	// the pool, and its FIN releases the last ones.
	const chunks = 48
	const chunkLen = 3000
	st := pair.Client.OpenStream()
	var want []byte
	for i := 0; i < chunks; i++ {
		chunk := bytes.Repeat([]byte{byte(i + 1)}, chunkLen)
		want = append(want, chunk...)
		st.Write(chunk)
		pair.RunUntil(pair.Loop.Now() + 20*time.Millisecond)
	}
	st.Close()
	pair.RunUntil(pair.Loop.Now() + 200*time.Millisecond)

	if len(gotBytes) != len(want) {
		t.Fatalf("delivered %d bytes, want %d", len(gotBytes), len(want))
	}
	for i := range want {
		if gotBytes[i] != want[i] {
			t.Fatalf("copied delivery corrupted at offset %d: got 0x%02x want 0x%02x", i, gotBytes[i], want[i])
		}
	}
	if !assert.Enabled {
		return
	}
	poisoned := 0
	for _, p := range kept {
		poisoned += bytes.Count(p, []byte{0xdb})
	}
	if poisoned == 0 {
		t.Fatalf("%d slices kept past their callbacks still read what was delivered: released buffers are not poisoned", len(kept))
	}
	t.Logf("%d of %d kept bytes read poison", poisoned, len(want))
}

// TestCallbackWriteKeepsItsInput pins why receive segments are released after
// the callback and not before: a callback that writes — a server answering a
// request — takes send segments from the same pool the receive segments go
// back to. Here every callback writes more than two segments before it reads
// its input, and the input must still be what the peer sent. The frames
// arrive in order, 1 KiB each, so a run ends on every segment boundary and
// the FIN's run lies inside the last, whole segment: released before the
// callback, each of those segments is the first one the write takes back,
// and under xlinkdebug it is poisoned either way.
func TestCallbackWriteKeepsItsInput(t *testing.T) {
	pair := establishedPair(t, 29)
	srv := pair.Server
	const size, frame = 3*segSize + 5000, 1 << 10
	reply := srv.OpenStream()
	filler := bytes.Repeat([]byte{0x5a}, 2*segSize+1)
	var got, bad int
	var finished bool
	srv.SetOnStreamData(func(_ time.Duration, rs *RecvStream, data []byte, fin bool) {
		reply.Write(filler)
		off := rs.Delivered() - uint64(len(data))
		for i, b := range data {
			if b != streamByte(off+uint64(i)) {
				bad++
			}
		}
		got += len(data)
		finished = finished || fin
	})
	content := make([]byte, size)
	fillStream(content, 0)
	for off := 0; off < size; off += frame {
		end := min(off+frame, size)
		injectFrames(pair, &wire.StreamFrame{StreamID: 0, Offset: uint64(off), Data: content[off:end], Fin: end == size})
	}
	if got != size || !finished {
		t.Fatalf("delivered %d of %d bytes, finished %v", got, size, finished)
	}
	if bad > 0 {
		t.Fatalf("%d delivered bytes changed under the callback that was reading them", bad)
	}
}

// TestAllocGateRoundTrip gates allocations of the full single-packet
// send→recv→ack round trip (scripts/check.sh runs every TestAllocGate*).
// The seed baseline was 98 allocs/op and pooling brought it to 20; since the
// decoder owns received frames and packet records are recycled (DESIGN.md
// §18) transport and wire contribute none, and since the link takes its
// packet buffers from pools and schedules a delivery as (link, slot) the
// emulator contributes none either (DESIGN.md §19). The last one was the
// cancel closure SimEnv.Schedule returned when the client's packet went in
// flight and set a PTO; the loop now hands out a cancel bound once per event
// node, and the round trip measures 0. The gate is that plus 1. The nodes
// come from a process-wide pool, which under -race drops a quarter of what
// it is given on purpose, so the gate runs without it.
func TestAllocGateRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state warmup")
	}
	if raceEnabled {
		t.Skip("-race: the event-node pool drops nodes on purpose")
	}
	if assert.Enabled {
		t.Skip("xlinkdebug: per-packet assertions allocate by design")
	}
	payload := make([]byte, 1200)
	var got uint64
	pair := benchPair(t, &got)
	st := pair.Client.OpenStream()
	for i := 0; i < 32; i++ { // warm scratch buffers and pools
		roundTrip(pair, st, payload)
	}
	const gate = 1
	avg := testing.AllocsPerRun(200, func() {
		roundTrip(pair, st, payload)
	})
	if avg > gate {
		t.Fatalf("round trip allocates %.1f/op, gate is %d (seed baseline: 98)", avg, gate)
	}
	if got == 0 {
		t.Fatal("no data delivered")
	}
}
