package vet

import (
	"go/ast"
	"strings"
	"testing"
)

// allocDescs collects the recorded allocation-site descriptions of one
// summary, split by cold flag.
func allocDescs(sum *funcSummary) (hot, cold []string) {
	for _, a := range sum.allocs {
		if a.cold {
			cold = append(cold, a.desc)
		} else {
			hot = append(hot, a.desc)
		}
	}
	return
}

// TestAllocSiteClassification checks that the escape pass records one site
// per allocation class with the expected description: make, new, escaping
// composite literal, closure value, interface boxing, string concatenation,
// fmt call.
func TestAllocSiteClassification(t *testing.T) {
	eng := engineFor(t, "hotalloc")

	enq := sumByName(t, eng, "hub.Enqueue")
	hot, cold := allocDescs(enq)
	if len(cold) != 0 {
		t.Fatalf("Enqueue has no cold branches; cold allocs = %v", cold)
	}
	wantSub := []string{"make allocation", "composite literal"}
	if len(hot) != len(wantSub) {
		t.Fatalf("Enqueue allocs = %v, want %d sites", hot, len(wantSub))
	}
	for i, sub := range wantSub {
		if !strings.Contains(hot[i], sub) {
			t.Errorf("Enqueue alloc %d = %q, want substring %q", i, hot[i], sub)
		}
	}

	refill := sumByName(t, eng, "hub.refill")
	hot, _ = allocDescs(refill)
	if len(hot) != 1 || !strings.Contains(hot[0], "new allocation") {
		t.Fatalf("refill allocs = %v, want one new allocation", hot)
	}

	desc := sumByName(t, eng, "hub.Describe")
	hot, _ = allocDescs(desc)
	wantSub = []string{"function literal", "boxed into interface", "string concatenation", "fmt.Sprintf"}
	if len(hot) != len(wantSub) {
		t.Fatalf("Describe allocs = %v, want %d sites", hot, len(wantSub))
	}
	for i, sub := range wantSub {
		if !strings.Contains(hot[i], sub) {
			t.Errorf("Describe alloc %d = %q, want substring %q", i, hot[i], sub)
		}
	}
}

// TestAppendCapacityProof checks the owned-scratch proof: appending to a
// fresh local is growth, appending through a local that aliases
// receiver-owned scratch is amortized reuse.
func TestAppendCapacityProof(t *testing.T) {
	eng := engineFor(t, "hotalloc")

	grow := sumByName(t, eng, "hub.Grow")
	hot, _ := allocDescs(grow)
	if len(hot) != 1 || !strings.Contains(hot[0], "append without a proven capacity reservation") {
		t.Fatalf("Grow allocs = %v, want exactly the unproven append", hot)
	}

	reserve := sumByName(t, eng, "hub.Reserve")
	if len(reserve.allocs) != 0 {
		hot, cold := allocDescs(reserve)
		t.Fatalf("Reserve appends only through owned scratch; allocs = hot %v cold %v", hot, cold)
	}
}

// TestColdBranchPruning checks that allocations behind assert.Enabled
// guards — branch form and early-return form — and behind an xlinkvet:cold
// directive are recorded as cold, so hotalloc prunes them.
func TestColdBranchPruning(t *testing.T) {
	eng := engineFor(t, "hotalloc")

	for _, name := range []string{"hub.DebugCheck", "hub.AuditAll", "hub.ColdResize"} {
		sum := sumByName(t, eng, name)
		hot, cold := allocDescs(sum)
		if len(hot) != 0 {
			t.Errorf("%s: hot allocs = %v, want all pruned as cold", name, hot)
		}
		if len(cold) == 0 {
			t.Errorf("%s: no cold allocs recorded — the site vanished instead of being pruned", name)
		}
	}
}

// TestHotReachability checks the hot-closure BFS: refill's allocation is
// attributed to the hot root that reaches it, and allocation-heavy but
// unannotated functions stay silent.
func TestHotReachability(t *testing.T) {
	eng := engineFor(t, "hotalloc")
	findings := checkHotAlloc(eng)

	var viaRefill bool
	for _, f := range findings {
		if strings.Contains(f.Msg, "hub.refill, reachable from hot function hub.Grow") {
			viaRefill = true
		}
		if strings.Contains(f.Msg, "NotHot") || strings.Contains(f.Msg, "coldHelper") {
			t.Errorf("non-hot function reported: %s", f)
		}
	}
	if !viaRefill {
		t.Errorf("refill's allocation not attributed to hot root Grow; findings:")
		for _, f := range findings {
			t.Logf("  %s", f)
		}
	}
}

// TestDirectiveArgs pins the annotation grammar parser: bare directives,
// argument lists, prefix non-matches, and absence.
func TestDirectiveArgs(t *testing.T) {
	cg := func(lines ...string) *ast.CommentGroup {
		g := &ast.CommentGroup{}
		for _, l := range lines {
			g.List = append(g.List, &ast.Comment{Text: l})
		}
		return g
	}
	cases := []struct {
		name string
		cg   *ast.CommentGroup
		dir  string
		want []string // nil = absent
	}{
		{"bare", cg("// xlinkvet:hot"), "xlinkvet:hot", []string{}},
		{"bare after prose", cg("// Seal is hot.", "// xlinkvet:hot"), "xlinkvet:hot", []string{}},
		{"one arg", cg("// xlinkvet:guardedby ep.mu"), "xlinkvet:guardedby", []string{"ep.mu"}},
		{"args", cg("// xlinkvet:guardedby confined (reused buffer)"), "xlinkvet:guardedby", []string{"confined", "(reused", "buffer)"}},
		{"prefix mismatch", cg("// xlinkvet:hotalloc"), "xlinkvet:hot", nil},
		{"absent", cg("// just prose"), "xlinkvet:hot", nil},
		{"nil group", nil, "xlinkvet:hot", nil},
	}
	for _, tc := range cases {
		got := directiveArgs(tc.cg, tc.dir)
		if (got == nil) != (tc.want == nil) || len(got) != len(tc.want) {
			t.Errorf("%s: directiveArgs = %#v, want %#v", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: arg %d = %q, want %q", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}
