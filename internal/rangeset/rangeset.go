// Package rangeset provides a sorted set of disjoint half-open uint64
// ranges, used for stream reassembly, packet-number tracking and
// acknowledgement construction.
package rangeset

import "repro/internal/assert"

// Range is a half-open interval [Start, End).
type Range struct {
	Start, End uint64
}

// Len returns the number of values in the range.
func (r Range) Len() uint64 { return r.End - r.Start }

// Set is a sorted set of disjoint, non-adjacent ranges. The zero value is
// an empty set.
//
// A set's first range is held inline: most sets — a stream's acknowledged
// bytes, a path's received packet numbers on a clean network — never hold
// more than one, and cost no allocation. The set spills to a heap slice when
// a second disjoint range appears and keeps that slice from then on, so a set
// that has spilled once goes on editing in place. Nothing a Set holds points
// into the Set itself: a copy taken while it holds one range is independent
// of the original; a copy of a spilled set shares its slice, as any copy of a
// slice does.
type Set struct {
	// head is the set's only range while spill is nil: the zero Range when
	// the set is empty. It is unused once the set has spilled. An array, so
	// that view can lend it as a slice.
	head [1]Range
	// spill holds every range once a second disjoint range has appeared.
	spill []Range
}

// view returns the ranges: the spilled slice, or the inline range as a
// one-element view of head, which edits write through.
func (s *Set) view() []Range {
	if s.spill != nil || s.head[0].Start == s.head[0].End {
		return s.spill
	}
	return s.head[:]
}

// insert opens a slot at index i of the view and fills it with r.
func (s *Set) insert(i int, r Range) {
	switch {
	case s.spill != nil:
		s.spill = append(s.spill, Range{})
		copy(s.spill[i+1:], s.spill[i:])
		s.spill[i] = r
	case s.head[0].Start == s.head[0].End:
		s.head[0] = r
	default:
		// A second disjoint range: the set spills to the heap.
		s.spill = make([]Range, 2)
		s.spill[i], s.spill[1-i] = r, s.head[0]
	}
}

// cut removes the ranges at indexes [i, j) of the view.
func (s *Set) cut(i, j int) {
	if s.spill != nil {
		s.spill = append(s.spill[:i], s.spill[j:]...)
		return
	}
	s.head[0] = Range{} // inline, i == 0 and j == 1: the only range goes
}

// Add inserts [start, end), merging as needed, and returns the number of
// values that were not already present. The set is edited in place; steady
// state (extending or merging into existing ranges) does not allocate.
func (s *Set) Add(start, end uint64) uint64 {
	if start >= end {
		return 0
	}
	rs := s.view()
	n := len(rs)
	// lo: first range that overlaps or touches [start, end) from the left;
	// hi: one past the last such range. Everything in [lo, hi) merges.
	lo := 0
	for lo < n && rs[lo].End < start {
		lo++
	}
	hi := lo
	for hi < n && rs[hi].Start <= end {
		hi++
	}
	if lo == hi {
		// Nothing to merge with: open a slot at lo.
		s.insert(lo, Range{start, end})
		s.checkWellFormed("Add")
		return end - start
	}
	added := end - start
	ms, me := start, end
	for i := lo; i < hi; i++ {
		r := rs[i]
		if os, oe := max64(start, r.Start), min64(end, r.End); oe > os {
			added -= oe - os
		}
		ms = min64(ms, r.Start)
		me = max64(me, r.End)
	}
	rs[lo] = Range{ms, me}
	if hi > lo+1 {
		s.cut(lo+1, hi)
	}
	s.checkWellFormed("Add")
	return added
}

// checkWellFormed asserts the set invariant under the xlinkdebug build tag:
// ranges are non-empty, sorted, disjoint, and non-adjacent (adjacent ranges
// must have merged).
func (s *Set) checkWellFormed(op string) {
	if !assert.Enabled {
		return
	}
	rs := s.view()
	for i, r := range rs {
		assert.That(r.Start < r.End, "rangeset %s: empty range %d [%d,%d)", op, i, r.Start, r.End)
		if i > 0 {
			assert.That(rs[i-1].End < r.Start,
				"rangeset %s: ranges %d,%d overlap or touch: [%d,%d) [%d,%d)",
				op, i-1, i, rs[i-1].Start, rs[i-1].End, r.Start, r.End)
		}
	}
}

// Contains reports whether every value in [start, end) is present.
func (s *Set) Contains(start, end uint64) bool {
	if start >= end {
		return true
	}
	for _, r := range s.view() {
		if r.Start <= start && end <= r.End {
			return true
		}
	}
	return false
}

// CoveredPrefix returns the end of the contiguous covered region starting
// at from (from itself if not covered).
func (s *Set) CoveredPrefix(from uint64) uint64 {
	for _, r := range s.view() {
		if r.Start <= from && from < r.End {
			return r.End
		}
	}
	return from
}

// FirstMissing returns the first gap at or after from within [from, limit).
// If everything is covered it returns limit, limit.
func (s *Set) FirstMissing(from, limit uint64) (start, end uint64) {
	cur := from
	for _, r := range s.view() {
		if r.End <= cur {
			continue
		}
		if r.Start > cur {
			e := r.Start
			if e > limit {
				e = limit
			}
			if cur < e {
				return cur, e
			}
			return limit, limit
		}
		cur = r.End
		if cur >= limit {
			return limit, limit
		}
	}
	if cur < limit {
		return cur, limit
	}
	return limit, limit
}

// Subtract removes [start, end) from the set. The set is edited in place;
// only the split case (carving a hole out of one range) can allocate.
func (s *Set) Subtract(start, end uint64) {
	if start >= end {
		return
	}
	rs := s.view()
	n := len(rs)
	// lo: first range with values at or after start.
	lo := 0
	for lo < n && rs[lo].End <= start {
		lo++
	}
	if lo == n || rs[lo].Start >= end {
		return
	}
	if r := rs[lo]; r.Start < start && r.End > end {
		// [start, end) is strictly inside one range: split it.
		rs[lo] = Range{r.Start, start}
		s.insert(lo+1, Range{end, r.End})
		s.checkWellFormed("Subtract")
		return
	}
	// Trim the edge ranges, drop fully covered ones.
	w := lo
	hi := lo
	for hi < n && rs[hi].Start < end {
		r := rs[hi]
		hi++
		switch {
		case r.Start < start:
			rs[w] = Range{r.Start, start}
			w++
		case r.End > end:
			rs[w] = Range{end, r.End}
			w++
		}
	}
	if w != hi {
		s.cut(w, hi)
	}
	s.checkWellFormed("Subtract")
}

// Empty reports whether the set has no ranges.
func (s *Set) Empty() bool { return len(s.view()) == 0 }

// Size returns the total number of values in the set.
func (s *Set) Size() uint64 {
	var n uint64
	for _, r := range s.view() {
		n += r.Len()
	}
	return n
}

// First returns the lowest range; ok is false when empty.
func (s *Set) First() (Range, bool) {
	rs := s.view()
	if len(rs) == 0 {
		return Range{}, false
	}
	return rs[0], true
}

// All returns a view of the ranges in ascending order, valid only until
// the set is next edited. The slice must not be mutated or retained.
func (s *Set) All() []Range { return s.view() }

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
