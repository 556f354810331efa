package rangeset

import (
	"testing"

	"repro/internal/assert"
)

// TestAllocGateAddSubtract gates the in-place Add/Subtract rewrites
// (scripts/check.sh runs every TestAllocGate*): a fresh set's first range is
// held inline, so its first Add, an extension and a trim allocate nothing;
// once a set's backing array has grown, sequential appends, gap fills and
// front subtractions must not allocate either.
func TestAllocGateAddSubtract(t *testing.T) {
	if assert.Enabled {
		// checkWellFormed runs after every edit under xlinkdebug and its
		// assert.That calls box their arguments per range — deliberate
		// debug-mode work. The gate measures the release-mode floor;
		// check.sh runs it untagged.
		t.Skip("xlinkdebug: per-op well-formedness verification allocates by design")
	}
	var fresh Set
	if avg := testing.AllocsPerRun(100, func() {
		fresh = Set{}
		fresh.Add(100, 200)     // the first range
		fresh.Add(200, 300)     // extends it
		fresh.Subtract(90, 150) // trims its front
	}); avg != 0 || fresh.All()[0] != (Range{150, 300}) {
		t.Fatalf("a fresh set's first Add, extension and trim allocate %.1f/op, want 0 (set %v)", avg, fresh.All())
	}
	var s Set
	for i := uint64(0); i < 64; i += 2 {
		s.Add(i*10, i*10+5) // pre-grow the backing array
	}
	next := uint64(10000)
	if avg := testing.AllocsPerRun(100, func() {
		s.Add(next, next+5)   // new trailing range
		s.Add(next+5, next+9) // extends it in place
		s.Subtract(0, 15)     // trims/drops from the front
		next += 10
	}); avg != 0 {
		t.Fatalf("warm Add/Subtract allocates %.1f/op, want 0", avg)
	}
}
