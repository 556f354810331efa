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
type Set struct {
	ranges []Range
}

// Add inserts [start, end), merging as needed, and returns the number of
// values that were not already present. The set is edited in place; steady
// state (extending or merging into existing ranges) does not allocate.
func (s *Set) Add(start, end uint64) uint64 {
	if start >= end {
		return 0
	}
	n := len(s.ranges)
	// lo: first range that overlaps or touches [start, end) from the left;
	// hi: one past the last such range. Everything in [lo, hi) merges.
	lo := 0
	for lo < n && s.ranges[lo].End < start {
		lo++
	}
	hi := lo
	for hi < n && s.ranges[hi].Start <= end {
		hi++
	}
	if lo == hi {
		// Nothing to merge with: open a slot at lo.
		s.ranges = append(s.ranges, Range{})
		copy(s.ranges[lo+1:], s.ranges[lo:])
		s.ranges[lo] = Range{start, end}
		s.checkWellFormed("Add")
		return end - start
	}
	added := end - start
	ms, me := start, end
	for i := lo; i < hi; i++ {
		r := s.ranges[i]
		if os, oe := max64(start, r.Start), min64(end, r.End); oe > os {
			added -= oe - os
		}
		ms = min64(ms, r.Start)
		me = max64(me, r.End)
	}
	s.ranges[lo] = Range{ms, me}
	if hi > lo+1 {
		s.ranges = append(s.ranges[:lo+1], s.ranges[hi:]...)
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
	for i, r := range s.ranges {
		assert.That(r.Start < r.End, "rangeset %s: empty range %d [%d,%d)", op, i, r.Start, r.End)
		if i > 0 {
			assert.That(s.ranges[i-1].End < r.Start,
				"rangeset %s: ranges %d,%d overlap or touch: [%d,%d) [%d,%d)",
				op, i-1, i, s.ranges[i-1].Start, s.ranges[i-1].End, r.Start, r.End)
		}
	}
}

// Contains reports whether every value in [start, end) is present.
func (s *Set) Contains(start, end uint64) bool {
	if start >= end {
		return true
	}
	for _, r := range s.ranges {
		if r.Start <= start && end <= r.End {
			return true
		}
	}
	return false
}

// CoveredPrefix returns the end of the contiguous covered region starting
// at from (from itself if not covered).
func (s *Set) CoveredPrefix(from uint64) uint64 {
	for _, r := range s.ranges {
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
	for _, r := range s.ranges {
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
	n := len(s.ranges)
	// lo: first range with values at or after start.
	lo := 0
	for lo < n && s.ranges[lo].End <= start {
		lo++
	}
	if lo == n || s.ranges[lo].Start >= end {
		return
	}
	if r := s.ranges[lo]; r.Start < start && r.End > end {
		// [start, end) is strictly inside one range: split it.
		s.ranges = append(s.ranges, Range{})
		copy(s.ranges[lo+1:], s.ranges[lo:])
		s.ranges[lo] = Range{r.Start, start}
		s.ranges[lo+1] = Range{end, r.End}
		s.checkWellFormed("Subtract")
		return
	}
	// Trim the edge ranges, drop fully covered ones.
	w := lo
	hi := lo
	for hi < n && s.ranges[hi].Start < end {
		r := s.ranges[hi]
		hi++
		switch {
		case r.Start < start:
			s.ranges[w] = Range{r.Start, start}
			w++
		case r.End > end:
			s.ranges[w] = Range{end, r.End}
			w++
		}
	}
	if w != hi {
		s.ranges = append(s.ranges[:w], s.ranges[hi:]...)
	}
	s.checkWellFormed("Subtract")
}

// Empty reports whether the set has no ranges.
func (s *Set) Empty() bool { return len(s.ranges) == 0 }

// Size returns the total number of values in the set.
func (s *Set) Size() uint64 {
	var n uint64
	for _, r := range s.ranges {
		n += r.Len()
	}
	return n
}

// First returns the lowest range; ok is false when empty.
func (s *Set) First() (Range, bool) {
	if len(s.ranges) == 0 {
		return Range{}, false
	}
	return s.ranges[0], true
}

// All returns a view of the ranges in ascending order, valid only until
// the set is next edited. The slice must not be mutated or retained.
func (s *Set) All() []Range { return s.ranges }

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
