package transport

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/rangeset"
	"repro/internal/sim"
	"repro/internal/wire"
)

// refRecv is the receive stream as it was before segmented buffering — one
// slice that keeps every byte for the life of the stream — kept as the
// reference model the segmented RecvStream must be indistinguishable from.
type refRecv struct {
	buf       []byte
	received  rangeset.Set
	delivered uint64
	finSeen   bool
	finOffset uint64
	finished  bool
	dup       uint64
	total     uint64
}

func (r *refRecv) onFrame(offset uint64, data []byte, fin bool) ([]byte, bool) {
	if r.finished {
		r.total += uint64(len(data))
		r.dup += uint64(len(data))
		return nil, false
	}
	if fin {
		r.finSeen = true
		r.finOffset = offset + uint64(len(data))
	}
	if len(data) > 0 {
		r.total += uint64(len(data))
		end := offset + uint64(len(data))
		if end > uint64(len(r.buf)) {
			r.buf = append(r.buf, make([]byte, end-uint64(len(r.buf)))...)
		}
		copy(r.buf[offset:end], data)
		r.dup += uint64(len(data)) - r.received.Add(offset, end)
	}
	newEnd := r.received.CoveredPrefix(r.delivered)
	var out []byte
	if newEnd > r.delivered {
		out = r.buf[r.delivered:newEnd]
		r.delivered = newEnd
	}
	if r.finSeen && r.delivered == r.finOffset {
		r.finished = true
		return out, true
	}
	return out, false
}

// streamByte is the content of a test stream at offset k.
func streamByte(k uint64) byte { return byte(k*2654435761>>7) ^ byte(k>>11) }

func fillStream(dst []byte, offset uint64) {
	for i := range dst {
		dst[i] = streamByte(offset + uint64(i))
	}
}

// recvFrame is one arrival in a generated schedule: a STREAM frame, or an
// injection of FEC-recovered bytes through deliverStreamData.
type recvFrame struct {
	offset, length uint64
	fin, fec       bool
}

// recvSchedule draws a seeded interleaving over a stream of size bytes:
// the stream cut into frames of uneven length, sent in order with a share
// held back and delivered late (out of order), plus — scattered through it —
// exact duplicates, frames overlapping their neighbours, frames wholly below
// what must already be delivered, and symbol-aligned FEC injections that
// partly overlap bytes already there.
func recvSchedule(rng *sim.RNG, size uint64) []recvFrame {
	var base []recvFrame
	for off := uint64(0); off < size; {
		n := uint64(1 + rng.Intn(1400))
		if rng.Intn(20) == 0 {
			n = uint64(1 + rng.Intn(3*segSize)) // now and then a run crossing segments
		}
		n = min(n, size-off)
		base = append(base, recvFrame{offset: off, length: n, fin: off+n == size})
		off += n
	}
	var out, late []recvFrame
	for i, f := range base {
		if rng.Intn(5) == 0 && !f.fin {
			late = append(late, f) // held back: arrives after its successors
		} else {
			out = append(out, f)
		}
		switch rng.Intn(12) {
		case 0: // duplicate of something sent a while ago (likely below the floor)
			out = append(out, base[rng.Intn(i+1)])
		case 1: // overlap: starts inside an earlier frame, ends inside a later one
			start := base[rng.Intn(i+1)].offset + uint64(rng.Intn(200))
			if start < size {
				out = append(out, recvFrame{offset: start, length: min(uint64(1+rng.Intn(4000)), size-start)})
			}
		case 2: // FEC injection: a 1 KiB symbol somewhere behind the send point
			start := uint64(rng.Intn(int(f.offset+1))) &^ 1023
			out = append(out, recvFrame{offset: start, length: min(1024, size-start), fec: true})
		}
		if len(late) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(late))
			out = append(out, late[k])
			late = append(late[:k], late[k+1:]...)
		}
	}
	return append(out, late...)
}

// TestRecvStreamMatchesReference drives the segmented RecvStream and the
// keep-everything reference through the same seeded interleavings, stream
// frames through handleStreamFrame and FEC recoveries through
// deliverStreamData, and requires the same delivered byte sequence callback
// by callback, the same duplicate and total counts, and the same finish
// point — with and without the FEC lane's history below the delivery point —
// while the segmented one never holds more than the undelivered extent plus
// a segment.
func TestRecvStreamMatchesReference(t *testing.T) {
	for _, fecOn := range []bool{false, true} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("fec=%v/seed%d", fecOn, seed), func(t *testing.T) {
				rng := sim.NewRNG(seed)
				size := uint64(200<<10 + rng.Intn(300<<10))
				content := make([]byte, size)
				fillStream(content, 0)

				c := &Conn{
					cfg:         Config{}.withDefaults(),
					recvStreams: map[uint64]*RecvStream{},
					env:         SimEnv{Loop: sim.NewLoop()}, // never established: no send pass runs
					fecEnabled:  fecOn,
				}
				c.localMaxData = c.cfg.Params.InitialMaxData
				var got []byte
				gotFin, step := -1, 0
				c.cfg.OnStreamData = func(_ time.Duration, _ *RecvStream, data []byte, fin bool) {
					got = append(got, data...)
					if fin {
						gotFin = step
					}
				}
				ref := &refRecv{}
				var want []byte
				wantFin := -1
				sent := uint64(0) // highest offset any arrival reached
				// Held, as the FEC decoder holds it: the connection forgets
				// the stream when it finishes, and counts the copies that
				// arrive after that itself.
				rs := c.streamForRecv(0, 4)

				for i, f := range recvSchedule(rng, size) {
					step = i
					data := content[f.offset : f.offset+f.length]
					sent = max(sent, f.offset+f.length)
					if f.fec {
						c.deliverStreamData(0, rs, f.offset, data, false)
					} else {
						c.handleStreamFrame(0, &wire.StreamFrame{StreamID: 4, Offset: f.offset, Data: data, Fin: f.fin})
					}
					out, fin := ref.onFrame(f.offset, data, f.fin && !f.fec)
					want = append(want, out...)
					if fin {
						wantFin = i
					}
					dup, live := c.Stats().DuplicateBytesRecv, c.recvStreams[4] != nil
					if len(got) != len(want) || dup != ref.dup || live && rs.TotalBytes != ref.total || gotFin != wantFin || live == (wantFin >= 0) {
						t.Fatalf("step %d (%+v): delivered %d dup %d total %d fin@%d held %v, reference %d %d %d fin@%d",
							i, f, len(got), dup, rs.TotalBytes, gotFin, live, len(want), ref.dup, ref.total, wantFin)
					}
					floor := rs.delivered - min(rs.delivered, rs.history)
					if held := c.Stats().RecvBufferedBytes; held > sent-floor+segSize {
						t.Fatalf("step %d: holds %d bytes for [%d, %d)", i, held, floor, sent)
					}
				}
				if c.Closed() {
					t.Fatalf("cooperative schedule closed the connection: %+v", c.Stats())
				}
				if wantFin < 0 || !bytes.Equal(got, content) {
					t.Fatalf("stream not delivered intact: %d of %d bytes, finished at %d", len(got), size, wantFin)
				}
				if st := c.Stats(); st.RecvBufferedBytes != 0 || st.RecvBufferedPeak == 0 {
					t.Fatalf("finished stream holds %d bytes (peak %d)", st.RecvBufferedBytes, st.RecvBufferedPeak)
				}
			})
		}
	}
}

// TestSegBufSmallStreamCostsItsBytes pins what a small stream holds: its
// first segment is a small one, at most firstSegMax bytes, taken from and
// given back to smallSegs, so on a warm pool a 64-byte stream stored and
// released costs no allocation. A stream that outgrows it swaps it for a
// whole segment and the small one goes back to its pool, and once the table
// spills the inline slot pins no segment. The pool checks hold the collector
// off and run on one P, whose private pool slot the other Ps cannot see.
func TestSegBufSmallStreamCostsItsBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	req := make([]byte, 64)
	var b segBuf
	small := func() {
		b = segBuf{pooled: true}
		b.put(0, req)
		if c := cap(b.segs[0]); c > firstSegMax {
			t.Fatalf("64-byte stream holds a %d-byte segment", c)
		}
		b.release(releaseAll)
	}
	small()
	if n := testing.AllocsPerRun(100, small); n != 0 && !raceEnabled {
		t.Fatalf("a 64-byte stream costs %.0f allocations on a warm pool, want 0", n)
	}

	c := segBuf{pooled: true}
	c.put(0, make([]byte, 1000))
	first := c.segs[0]
	c.put(1000, make([]byte, firstSegMax))
	if cap(c.segs[0]) != segSize || len(c.segs) != 1 {
		t.Fatalf("a stream past firstSegMax holds %d segments, the first of %d bytes", len(c.segs), cap(c.segs[0]))
	}
	if !raceEnabled { // under -race the pool drops what it is given now and then
		if g := getSmallSeg(); &g[0] != &first[0] {
			t.Fatal("the outgrown small segment did not go back to its pool")
		}
	}
	c.put(1000+firstSegMax, make([]byte, 2*segSize))
	if c.one[0] != nil {
		t.Fatal("inline table slot still pins segment 0 after the table grew")
	}
	if len(c.segs) != 3 || cap(c.segs[0]) != segSize {
		t.Fatalf("segments %d, first cap %d", len(c.segs), cap(c.segs[0]))
	}
	c.drop()
}

// TestAllocGateSegmentTablePooled: on a warm pool a stream of 2 to 40
// segments, written and then released, takes no segment table from the
// heap — an emptied buffer gives its spilled table back to segTables and the
// next spill takes it, whatever its length — and the table it gives back
// holds no segment.
func TestAllocGateSegmentTablePooled(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: the pools drop what they are given on purpose")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b := segBuf{pooled: true}
	data := make([]byte, segSize)
	streams := func() {
		for n := 2; n <= 40; n++ {
			base := b.base()
			for i := 0; i < n; i++ {
				b.put(base+uint64(i)*segSize, data)
			}
			if len(b.segs) != n || b.spilled == nil {
				t.Fatalf("a %d-segment stream has a %d-entry table, spilled %v", n, len(b.segs), b.spilled != nil)
			}
			b.release(releaseAll)
		}
	}
	streams() // grow the table and fill the pools
	if avg := testing.AllocsPerRun(5, streams); avg != 0 {
		t.Fatalf("streams of 2 to 40 segments cost %.1f allocations on a warm pool, want 0", avg)
	}
	if b.segs != nil || b.spilled != nil {
		t.Fatal("an emptied buffer kept its table")
	}
	tab, ok := segTables.Get().(*[][]byte)
	if !ok {
		t.Fatal("the emptied buffer's table is not in the pool")
	}
	if len(*tab) != 0 || cap(*tab) < 40 {
		t.Fatalf("the pooled table has length %d and capacity %d, want 0 and at least 40", len(*tab), cap(*tab))
	}
	for i, seg := range (*tab)[:cap(*tab)] {
		if seg != nil {
			t.Fatalf("the pooled table still names a segment at entry %d", i)
		}
	}
	segTables.Put(tab)
}

// TestAllocGateSegmentTableSlides: a warm stream that writes 64 segments and
// releases each once four more follow it takes no segment table from the heap:
// release slides the live segments down its table in place, and the segments
// come from the pool.
func TestAllocGateSegmentTableSlides(t *testing.T) {
	if raceEnabled {
		t.Skip("-race: the segment pool drops segments on purpose")
	}
	b := segBuf{pooled: true}
	data := make([]byte, segSize)
	var off uint64
	stream := func() {
		for i := 0; i < 64; i++ {
			b.put(off, data)
			off += segSize
			b.release(off - 4*segSize)
		}
	}
	stream() // grow the table and fill the pool
	if avg := testing.AllocsPerRun(20, stream); avg != 0 {
		t.Fatalf("64 segments written and released cost %.1f allocations, want 0", avg)
	}
	if len(b.segs) != 4 || b.base() != off-4*segSize {
		t.Fatalf("%d segments live from offset %d, want 4 from %d", len(b.segs), b.base(), off-4*segSize)
	}
	b.drop()
	if b.segs != nil {
		t.Fatal("drop kept the segment table")
	}
}
