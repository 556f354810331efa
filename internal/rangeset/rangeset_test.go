package rangeset

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestAddDisjoint(t *testing.T) {
	var s Set
	if got := s.Add(10, 20); got != 10 {
		t.Fatalf("added %d, want 10", got)
	}
	if got := s.Add(30, 40); got != 10 {
		t.Fatalf("added %d, want 10", got)
	}
	if s.Size() != 20 || len(s.All()) != 2 {
		t.Fatalf("size=%d ranges=%d", s.Size(), len(s.All()))
	}
}

func TestAddOverlap(t *testing.T) {
	var s Set
	s.Add(10, 20)
	if got := s.Add(15, 25); got != 5 {
		t.Fatalf("overlap add returned %d, want 5", got)
	}
	if len(s.All()) != 1 || s.All()[0] != (Range{10, 25}) {
		t.Fatalf("ranges %v", s.All())
	}
	if got := s.Add(10, 25); got != 0 {
		t.Fatal("fully covered add should return 0")
	}
}

func TestAddAdjacentMerges(t *testing.T) {
	var s Set
	s.Add(10, 20)
	s.Add(20, 30)
	if len(s.All()) != 1 || s.All()[0] != (Range{10, 30}) {
		t.Fatalf("adjacent merge failed: %v", s.All())
	}
}

func TestAddBridges(t *testing.T) {
	var s Set
	s.Add(0, 10)
	s.Add(20, 30)
	s.Add(40, 50)
	if got := s.Add(5, 45); got != 20 {
		t.Fatalf("bridge add returned %d, want 20", got)
	}
	if len(s.All()) != 1 || s.All()[0] != (Range{0, 50}) {
		t.Fatalf("ranges %v", s.All())
	}
}

func TestContains(t *testing.T) {
	var s Set
	s.Add(10, 30)
	if !s.Contains(10, 30) || !s.Contains(15, 20) || !s.Contains(5, 5) {
		t.Fatal("contains")
	}
	if s.Contains(5, 15) || s.Contains(25, 35) || s.Contains(40, 50) {
		t.Fatal("should not contain")
	}
}

func TestCoveredPrefix(t *testing.T) {
	var s Set
	s.Add(0, 100)
	s.Add(150, 200)
	if got := s.CoveredPrefix(0); got != 100 {
		t.Fatalf("prefix from 0 = %d", got)
	}
	if got := s.CoveredPrefix(100); got != 100 {
		t.Fatalf("prefix from gap = %d", got)
	}
	if got := s.CoveredPrefix(160); got != 200 {
		t.Fatalf("prefix from 160 = %d", got)
	}
}

func TestFirstMissing(t *testing.T) {
	var s Set
	s.Add(10, 20)
	s.Add(30, 40)
	if a, b := s.FirstMissing(0, 100); a != 0 || b != 10 {
		t.Fatalf("missing = [%d,%d)", a, b)
	}
	if a, b := s.FirstMissing(10, 100); a != 20 || b != 30 {
		t.Fatalf("missing = [%d,%d)", a, b)
	}
	if a, b := s.FirstMissing(15, 18); a != 18 || b != 18 {
		t.Fatalf("fully covered window: [%d,%d)", a, b)
	}
	if a, b := s.FirstMissing(35, 100); a != 40 || b != 100 {
		t.Fatalf("missing = [%d,%d)", a, b)
	}
}

func TestSubtract(t *testing.T) {
	var s Set
	s.Add(0, 100)
	s.Subtract(20, 30)
	if s.Size() != 90 || len(s.All()) != 2 {
		t.Fatalf("after subtract: %v", s.All())
	}
	if s.Contains(20, 30) {
		t.Fatal("subtracted region still present")
	}
	s.Subtract(0, 100)
	if !s.Empty() {
		t.Fatal("full subtract should empty the set")
	}
}

func TestFirst(t *testing.T) {
	var s Set
	if _, ok := s.First(); ok {
		t.Fatal("empty set has no first")
	}
	s.Add(50, 60)
	s.Add(10, 20)
	r, ok := s.First()
	if !ok || r.Start != 10 {
		t.Fatalf("first = %v", r)
	}
	if r.Len() != 10 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestPropertyInvariants(t *testing.T) {
	f := func(ops [][2]uint16) bool {
		var s Set
		total := map[uint64]bool{}
		for _, op := range ops {
			a, b := uint64(op[0]), uint64(op[1])
			if a > b {
				a, b = b, a
			}
			want := uint64(0)
			for x := a; x < b; x++ {
				if !total[x] {
					want++
					total[x] = true
				}
			}
			if got := s.Add(a, b); got != want {
				return false
			}
			rs := s.All()
			for i := 0; i < len(rs); i++ {
				if rs[i].Start >= rs[i].End {
					return false
				}
				if i > 0 && rs[i-1].End >= rs[i].Start {
					return false
				}
			}
		}
		return s.Size() == uint64(len(total))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// bits is the reference model for TestAddSubtractMatchesBitset: value v is in
// the set when bit v is.
type bits [2]uint64

func (b *bits) has(v uint64) bool { return b[v/64]&(1<<(v%64)) != 0 }

// ranges lists b's maximal runs of set bits, ascending.
func (b *bits) ranges() []Range {
	var out []Range
	for v := uint64(0); v < 128; v++ {
		if !b.has(v) {
			continue
		}
		if n := len(out); n > 0 && out[n-1].End == v {
			out[n-1].End++
		} else {
			out = append(out, Range{v, v + 1})
		}
	}
	return out
}

// TestAddSubtractMatchesBitset drives random Add/Subtract sequences over the
// values 0–127 against a bitset and compares every answer and the whole set
// after each edit. Short spans near each other make the set move between
// empty, one inline range and spilled, and back. Once per sequence, while the
// set holds one range or none, a value copy is taken: it must keep reading
// what the set held then while the original goes on being edited.
func TestAddSubtractMatchesBitset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var spills, shrinks, copies int
	for seq := 0; seq < 2000; seq++ {
		var s, c Set
		var ref, cref bits
		copyAt := rng.Intn(40)
		for op := 0; op < 40; op++ {
			// Spans up to 16 long, or 48 for a Subtract, starting near the
			// low end half the time.
			a := uint64(rng.Intn(120))
			if rng.Intn(2) == 0 {
				a = uint64(rng.Intn(24))
			}
			sub := rng.Intn(3) == 0
			b := a + uint64(rng.Intn(17))
			if sub {
				b = a + uint64(rng.Intn(49))
			}
			b = min(b, 128)
			wasSpilled, before := s.spill != nil, len(s.All())
			if sub {
				s.Subtract(a, b)
				for v := a; v < b; v++ {
					ref[v/64] &^= 1 << (v % 64)
				}
			} else {
				want := uint64(0)
				for v := a; v < b; v++ {
					if !ref.has(v) {
						want++
						ref[v/64] |= 1 << (v % 64)
					}
				}
				if got := s.Add(a, b); got != want {
					t.Fatalf("seq %d op %d: Add(%d, %d) = %d, want %d", seq, op, a, b, got, want)
				}
			}
			if !wasSpilled && s.spill != nil {
				spills++
			}
			if wasSpilled && before > 1 && len(s.All()) <= 1 {
				shrinks++
			}
			checkAgainst(t, &s, &ref, "the set")
			if op == copyAt && s.spill == nil {
				c, cref = s, ref
				copies++
			}
			checkAgainst(t, &c, &cref, "a copy taken earlier")
		}
	}
	if spills < 1000 || shrinks < 500 || copies < 100 {
		t.Fatalf("%d inline-to-spilled transitions, %d spilled sets back to one range or none, %d copies: the sequences miss the transitions", spills, shrinks, copies)
	}
	t.Logf("%d spills, %d shrinks, %d copies", spills, shrinks, copies)
}

// checkAgainst fails unless s holds exactly the values of ref and answers
// every query as ref does.
func checkAgainst(t *testing.T, s *Set, ref *bits, what string) {
	t.Helper()
	want := ref.ranges()
	if got := s.All(); !slices.Equal(got, want) {
		t.Fatalf("%s holds %v, want %v", what, got, want)
	}
	size := uint64(0)
	for _, r := range want {
		size += r.Len()
	}
	first, ok := s.First()
	if s.Size() != size || s.Empty() != (len(want) == 0) || ok != (len(want) > 0) || (ok && first != want[0]) {
		t.Fatalf("%s: size %d, empty %v, first %v %v; want %v", what, s.Size(), s.Empty(), first, ok, want)
	}
	for _, r := range want {
		if !s.Contains(r.Start, r.End) || s.CoveredPrefix(r.Start) != r.End {
			t.Fatalf("%s: %v not covered", what, r)
		}
		if s.Contains(r.Start, r.End+1) {
			t.Fatalf("%s: %v covered one past its end", what, r)
		}
	}
	if gs, ge := s.FirstMissing(0, 128); len(want) > 0 && want[0].Start == 0 && (gs != want[0].End || (len(want) > 1 && ge != want[1].Start)) {
		t.Fatalf("%s: first gap [%d, %d) in %v", what, gs, ge, want)
	}
}
