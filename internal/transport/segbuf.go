package transport

import (
	"math"
	"sync"

	"repro/internal/assert"
)

// Stream buffering (DESIGN.md §17). A stream's bytes live in fixed-size
// segments addressed by stream offset, so the prefix nobody will read again
// — acknowledged on the send side, delivered on the receive side — can be
// let go while the rest of the stream is still moving. What a connection
// holds is then its flow-control window plus what is in flight, whatever the
// length of the video.

// segSize is the unit stream buffers grow and shrink by.
const segSize = 32 << 10

// firstSegMax is the size of a stream's first segment, a small one from
// smallSegs, until the stream outgrows it and it is swapped for a whole
// segment. A small stream — a request, a tiny response — holds 4 KiB, not
// 32 KiB, while it waits for its acknowledgement or its reader.
const firstSegMax = 4 << 10

// releaseAll is the floor that releases every segment.
const releaseAll = math.MaxUint64

// bufAcct totals what the stream buffers of one direction of a connection
// hold, and the most they ever held.
type bufAcct struct{ bytes, peak uint64 }

// segPool is the process-wide pool of stream segments, send and receive
// alike, as *[segSize]byte so that Put boxes nothing; the collector empties
// it, so an idle connection holds none. A send segment returns once the peer
// holds its bytes; a receive segment once its bytes were delivered and the
// callback that borrowed them has returned (deliverStreamData), since the
// delivered slice aliases it.
var segPool sync.Pool

// smallSegs is the pool of first segments, *[firstSegMax]byte, the second
// size class beside segPool (netem's packet buffers have the same two-class
// shape): a stream's first segment comes from it and goes back to it once
// released or outgrown.
var smallSegs sync.Pool

// segTables is the pool of spilled segment tables, as *[][]byte, of any
// length: a buffer that needs more than its inline slot takes one, and gives
// it back, cleared, when it empties.
var segTables sync.Pool

// getSeg returns a whole segment, reused if the pool has one.
func getSeg() []byte {
	if seg, ok := segPool.Get().(*[segSize]byte); ok {
		return seg[:]
	}
	return make([]byte, segSize)
}

// getSmallSeg returns a first segment, reused if the pool has one.
func getSmallSeg() []byte {
	if seg, ok := smallSegs.Get().(*[firstSegMax]byte); ok {
		return seg[:]
	}
	return make([]byte, firstSegMax)
}

// putSeg returns a released segment, whole or small, to its pool. Under
// xlinkdebug it is overwritten first, so a read through a stale reference
// fails content verification instead of quietly returning the old bytes.
func putSeg(seg []byte) {
	switch cap(seg) {
	case segSize:
		whole := (*[segSize]byte)(seg[:segSize])
		poison(whole[:])
		segPool.Put(whole)
	case firstSegMax:
		small := (*[firstSegMax]byte)(seg[:firstSegMax])
		poison(small[:])
		smallSegs.Put(small)
	}
}

// poison overwrites a buffer going back to a pool with 0xdb under xlinkdebug.
func poison(b []byte) {
	if assert.Enabled {
		for i := range b {
			b[i] = 0xdb
		}
	}
}

// segBuf is an offset-addressed byte store over a list of segments: segs[i]
// backs stream offsets [(first+i)*segSize, (first+i+1)*segSize) and is nil
// where nothing was stored. first only moves forward, in release.
type segBuf struct {
	segs  [][]byte
	first uint64
	// end is the highest stream offset stored so far.
	end uint64
	// one backs segs while the stream fits a single segment, so a small
	// stream takes no table; past it, spilled holds the table from
	// segTables.
	one     [1][]byte
	spilled *[][]byte
	acct    *bufAcct
	pooled  bool // a stream's buffer: segments go back to their pools
}

// size is what the buffer is accounted as holding: from the start of its
// oldest segment to the highest byte stored, holes included.
func (b *segBuf) size() uint64 {
	if len(b.segs) == 0 {
		return 0
	}
	return b.end - b.first*segSize
}

// resized books the change since the size was before.
func (b *segBuf) resized(before uint64) {
	if b.acct == nil {
		return
	}
	b.acct.bytes += b.size() - before
	if b.acct.bytes > b.acct.peak {
		b.acct.peak = b.acct.bytes
	}
}

// put stores data at stream offset off, which must not lie below a released
// segment. The stream's very first segment is a small one while it fits —
// a 64-byte request must not hold 32 KiB; every other segment is a whole
// one.
func (b *segBuf) put(off uint64, data []byte) {
	if off < b.base() {
		assert.That(false, "write below the released prefix")
		return
	}
	before := b.size()
	for len(data) > 0 {
		idx, in := off/segSize, int(off%segSize)
		n := min(len(data), segSize-in)
		// The segment table grows once per segSize of stream.
		if idx-b.first >= uint64(len(b.segs)) {
			b.extend(int(idx-b.first) + 1)
		}
		seg := &b.segs[idx-b.first]
		if in+n > len(*seg) {
			*seg = b.grow(*seg, idx == 0, in+n)
		}
		copy((*seg)[in:], data[:n])
		off += uint64(n)
		data = data[n:]
	}
	if off > b.end {
		b.end = off
	}
	b.resized(before)
}

// extend lengthens the segment table to n entries, the new ones nil. Past
// the inline slot the table spills to one from segTables, which append grows
// from whatever length it had.
func (b *segBuf) extend(n int) {
	if b.segs == nil {
		b.segs = b.one[:0]
	}
	if n > 1 && b.spilled == nil {
		if t, ok := segTables.Get().(*[][]byte); ok {
			b.spilled = t
		} else {
			b.spilled = new([][]byte)
		}
		b.segs = append((*b.spilled)[:0], b.segs...)
		b.one[0] = nil // the table moved to the heap; do not pin segment 0 from here
	}
	for len(b.segs) < n {
		b.segs = append(b.segs, nil)
	}
}

// grow returns seg extended to at least need bytes. A stream's first
// segment is small until it needs more than firstSegMax; then it is swapped
// for a whole one and goes back to its pool. An unpooled buffer's segments
// go to the collector instead.
func (b *segBuf) grow(seg []byte, streamStart bool, need int) []byte {
	if need <= cap(seg) {
		return seg[:need]
	}
	if streamStart && need <= firstSegMax { // seg is nil: small segments hold firstSegMax
		return getSmallSeg()[:need]
	}
	g := getSeg()
	copy(g, seg)
	if b.pooled {
		putSeg(seg)
	}
	return g
}

// span returns the stored bytes at off: at most n of them, and only up to
// the end of the segment holding off.
func (b *segBuf) span(off, n uint64) []byte {
	seg := b.segs[off/segSize-b.first]
	in := off % segSize
	return seg[in:min(in+n, uint64(len(seg)))]
}

// appendTo appends the n stored bytes at off to dst, crossing segments.
func (b *segBuf) appendTo(dst []byte, off, n uint64) []byte {
	for n > 0 {
		p := b.span(off, n)
		if len(p) == 0 {
			assert.That(false, "read of stream bytes that were never stored")
			break
		}
		dst = append(dst, p...)
		off += uint64(len(p))
		n -= uint64(len(p))
	}
	return dst
}

// base is the lowest stream offset still addressable.
func (b *segBuf) base() uint64 { return b.first * segSize }

// release lets go of every segment that lies wholly below floor. The live
// segments slide down to the front of the table in place, so a stream that
// keeps writing ahead of what it releases reuses one table; an emptied buffer
// gives a spilled table back to segTables, cleared.
func (b *segBuf) release(floor uint64) {
	before := b.size()
	k := 0
	for k < len(b.segs) && (b.first+uint64(k)+1)*segSize <= floor {
		if b.pooled {
			putSeg(b.segs[k])
		}
		k++
	}
	if k == 0 {
		return
	}
	n := copy(b.segs, b.segs[k:])
	clear(b.segs[n:])
	b.segs = b.segs[:n]
	b.first += uint64(k)
	if n == 0 {
		if b.spilled != nil {
			clear(b.segs[:cap(b.segs)])
			*b.spilled = b.segs[:0]
			segTables.Put(b.spilled)
			b.spilled = nil
		}
		b.segs = nil
	}
	b.resized(before)
}

// drop is the terminal release: every segment goes to the collector, not to
// the pool, which would keep a closed connection's window one cycle longer —
// and would hand a receive segment on while a callback that closed the
// connection or stopped the stream may still be reading it. The table, which
// holds no bytes, goes back to segTables.
func (b *segBuf) drop() {
	b.pooled = false
	b.release(releaseAll)
}
