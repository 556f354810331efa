package vet

import (
	"go/ast"
	"strings"
	"testing"
)

// engineFor builds the interprocedural engine over one testdata fixture,
// giving the tests direct access to summaries, closures, and guard tables.
func engineFor(t *testing.T, fixture string) *engine {
	t.Helper()
	cfg, pkg := loadFixturePkg(t, fixture)
	return newEngine(cfg, []*Package{pkg})
}

func sumByName(t *testing.T, eng *engine, name string) *funcSummary {
	t.Helper()
	for _, s := range eng.sums {
		if s.name == name {
			return s
		}
	}
	t.Fatalf("no summary named %q", name)
	return nil
}

const fixtureMu = lockID("fixture/lockheld.server.mu")

// TestSummaryHeldSets checks the abstract interpretation of held-lock sets:
// plain lock/unlock regions, defer-unlock keeping the lock held through the
// body, and lock-free functions recording unlocked operations.
func TestSummaryHeldSets(t *testing.T) {
	eng := engineFor(t, "lockheld")

	sleep := sumByName(t, eng, "server.SleepUnderLock")
	if len(sleep.ops) != 1 || sleep.ops[0].kind != opBlock || !sleep.ops[0].held[fixtureMu] {
		t.Fatalf("SleepUnderLock ops = %+v, want one blocking op under %s", sleep.ops, fixtureMu)
	}

	deferred := sumByName(t, eng, "server.SendUnderDeferredLock")
	if len(deferred.ops) != 1 || !deferred.ops[0].held[fixtureMu] {
		t.Fatalf("defer mu.Unlock() must keep the lock held through the body; ops = %+v", deferred.ops)
	}

	outside := sumByName(t, eng, "server.BlockOutsideLock")
	if len(outside.ops) != 1 || len(outside.ops[0].held) != 0 {
		t.Fatalf("BlockOutsideLock must record an unlocked blocking op; ops = %+v", outside.ops)
	}

	clean := sumByName(t, eng, "server.UnderLockOK")
	if len(clean.ops) != 0 {
		t.Fatalf("UnderLockOK must have no forbidden ops; got %+v", clean.ops)
	}

	trans := sumByName(t, eng, "server.TransitiveBlock")
	if len(trans.calls) != 1 || trans.calls[0].callee.Name() != "netIO" || !trans.calls[0].held[fixtureMu] {
		t.Fatalf("TransitiveBlock must record a locked call site to netIO; calls = %+v", trans.calls)
	}
}

// TestReachClosure checks the memoized reachable-operations closure: netIO
// exposes its blocking op to callers, and a pure helper exposes nothing.
func TestReachClosure(t *testing.T) {
	eng := engineFor(t, "lockheld")

	netIO := sumByName(t, eng, "server.netIO")
	rs := eng.reach(netIO.fn)
	if rs.byKind[opBlock] == nil {
		t.Fatal("reach(netIO) must include a blocking operation")
	}
	if rs.byKind[opDynCall] != nil || rs.byKind[opEmit] != nil {
		t.Fatalf("reach(netIO) must only contain the blocking op; got %+v", rs.byKind)
	}

	clean := sumByName(t, eng, "server.UnderLockOK")
	crs := eng.reach(clean.fn)
	for k, ref := range crs.byKind {
		if ref != nil {
			t.Fatalf("reach(UnderLockOK) must be empty; kind %d = %+v", k, ref)
		}
	}
}

// TestTransAcquires checks the transitive lock-acquisition closure used for
// deadlock detection: lockAgain acquires mu, and DoubleLock (which calls
// it while holding mu) yields exactly the deadlock finding.
func TestTransAcquires(t *testing.T) {
	eng := engineFor(t, "lockheld")

	lockAgain := sumByName(t, eng, "server.lockAgain")
	acq := eng.transAcquires(lockAgain.fn)
	if _, ok := acq[fixtureMu]; !ok {
		t.Fatalf("transAcquires(lockAgain) = %v, want %s", acq, fixtureMu)
	}

	var deadlocks int
	for _, f := range checkLockHeld(eng) {
		if strings.Contains(f.Msg, "deadlock") && strings.Contains(f.Msg, "re-acquires") {
			deadlocks++
		}
	}
	if deadlocks != 1 {
		t.Fatalf("want exactly 1 transitive re-acquire deadlock finding, got %d", deadlocks)
	}
}

// TestLockOrderCycle checks that the conflicting a→b / b→a acquisition
// orders in the fixture are reported as exactly one cycle.
func TestLockOrderCycle(t *testing.T) {
	eng := engineFor(t, "lockheld")
	var cycles int
	for _, f := range checkLockHeld(eng) {
		if strings.Contains(f.Msg, "lock-order cycle") {
			cycles++
			if !strings.Contains(f.Msg, "pair.a") || !strings.Contains(f.Msg, "pair.b") {
				t.Fatalf("cycle finding must name both locks: %s", f.Msg)
			}
		}
	}
	if cycles != 1 {
		t.Fatalf("want exactly 1 lock-order cycle finding, got %d", cycles)
	}
}

// TestGuardResolution checks annotation parsing and resolution: a dotted
// mutex path, the confined keyword, and an unresolvable guard.
func TestGuardResolution(t *testing.T) {
	eng := engineFor(t, "guardedby")

	byField := map[string]*guardInfo{}
	for v, gi := range eng.guards {
		byField[v.Name()] = gi
	}
	if gi := byField["n"]; gi == nil || gi.lock != lockID("fixture/guardedby.counter.mu") {
		t.Fatalf("guard for n = %+v, want lock fixture/guardedby.counter.mu", gi)
	}
	if gi := byField["q"]; gi == nil || !gi.confined {
		t.Fatalf("guard for q = %+v, want confined", gi)
	}
	if gi := byField["bad"]; gi == nil || gi.bad == "" {
		t.Fatalf("guard for bad must fail to resolve; got %+v", gi)
	}
	if len(eng.guardErrs) != 1 {
		t.Fatalf("want 1 guard resolution error finding, got %d", len(eng.guardErrs))
	}
}

// TestCallerCredit checks the one-level interprocedural credit: bump is
// unexported, called exactly once, and that call holds the guard — so its
// unlocked field access is accepted; UnlockedRead's is not.
func TestCallerCredit(t *testing.T) {
	eng := engineFor(t, "guardedby")
	mu := lockID("fixture/guardedby.counter.mu")

	bump := sumByName(t, eng, "counter.bump")
	if !eng.lockedByCallers(bump, mu) {
		t.Fatal("bump must be credited as locked by its single locked caller")
	}
	read := sumByName(t, eng, "counter.UnlockedRead")
	if eng.lockedByCallers(read, mu) {
		t.Fatal("UnlockedRead must not receive caller credit (exported, unlocked callers)")
	}
}

// TestGoReach checks goroutine reachability: the launched literal in
// SpawnReset is goroutine-reachable, the owner-loop method Push is not.
func TestGoReach(t *testing.T) {
	eng := engineFor(t, "guardedby")

	lit := sumByName(t, eng, "function literal in counter.SpawnReset")
	if !eng.goReach[lit] {
		t.Fatal("go-launched literal must be goroutine-reachable")
	}
	push := sumByName(t, eng, "counter.Push")
	if eng.goReach[push] {
		t.Fatal("Push is only called from the owner loop; must not be goroutine-reachable")
	}
	confined := sumByName(t, eng, "function literal in ConfinedWorker")
	if eng.goReach[confined] {
		t.Fatal("an xlinkvet:confines spawn must not seed goroutine reachability")
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
		{"bare", cg("// xlinkvet:guardedby"), "xlinkvet:guardedby", []string{}},
		{"after prose", cg("// n counts hits.", "// xlinkvet:guardedby mu"), "xlinkvet:guardedby", []string{"mu"}},
		{"one arg", cg("// xlinkvet:guardedby ep.mu"), "xlinkvet:guardedby", []string{"ep.mu"}},
		{"args", cg("// xlinkvet:guardedby confined (reused buffer)"), "xlinkvet:guardedby", []string{"confined", "(reused", "buffer)"}},
		{"prefix mismatch", cg("// xlinkvet:guardedbyx mu"), "xlinkvet:guardedby", nil},
		{"absent", cg("// just prose"), "xlinkvet:guardedby", nil},
		{"nil group", nil, "xlinkvet:guardedby", nil},
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
