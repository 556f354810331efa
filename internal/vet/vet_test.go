package vet

import (
	"strings"
	"sync"
	"testing"
)

// fixtures is the one loader every fixture test loads through, as `xlinkvet
// -selftest` does: the standard library and the module packages the fixtures
// import are type-checked from source once, not once per test.
var fixtures struct {
	once   sync.Once
	loader *Loader
	err    error
}

// loadFixture runs every rule over one fixture, mirroring `xlinkvet
// -selftest`.
func loadFixture(t *testing.T, name string) []Finding {
	t.Helper()
	fixtures.once.Do(func() { fixtures.loader, fixtures.err = NewLoader(".") })
	if fixtures.err != nil {
		t.Fatal(fixtures.err)
	}
	cfg, pkg, err := fixtures.loader.LoadFixture(name)
	if err != nil {
		t.Fatal(err)
	}
	return Run(cfg, []*Package{pkg})
}

// TestFixturesFire pins the exact number of findings each rule produces on
// its committed fixture (RuleDoc.Findings), so a regression that silently
// disables a rule (or one that over-reports) fails the ordinary test suite,
// not only the `xlinkvet -selftest` gate.
func TestFixturesFire(t *testing.T) {
	for _, doc := range RuleDocs {
		t.Run(doc.Name, func(t *testing.T) {
			findings := loadFixture(t, doc.Name)
			got := 0
			for _, f := range findings {
				if f.Rule != doc.Name {
					t.Errorf("unexpected rule: %s", f)
					continue
				}
				got++
			}
			if got != doc.Findings {
				for _, f := range findings {
					t.Logf("finding: %s", f)
				}
				t.Fatalf("rule %s fired %d time(s), want %d", doc.Name, got, doc.Findings)
			}
		})
	}
}

// TestRepoIsClean runs the analyzer over the real module with the production
// config — the swept tree must stay finding-free.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(DefaultConfig(loader.ModPath), pkgs)
	for _, f := range findings {
		t.Errorf("finding: %s", f)
	}
}

// TestIgnoreDirective checks suppression syntax end to end: same-line and
// preceding-line placement, rule lists, and the bare form matching any rule.
func TestIgnoreDirective(t *testing.T) {
	findings := loadFixture(t, "determinism")
	for _, f := range findings {
		if strings.Contains(f.Msg, "SuppressedOK") {
			t.Errorf("suppressed site still reported: %s", f)
		}
	}
}

// TestFindingString pins the file:line:col [rule] message format other
// tooling (and humans) grep for.
func TestFindingString(t *testing.T) {
	findings := loadFixture(t, "maprange")
	if len(findings) != 1 {
		t.Fatalf("want 1 finding, got %d", len(findings))
	}
	s := findings[0].String()
	if !strings.Contains(s, "fix.go:") || !strings.Contains(s, "[maprange]") {
		t.Fatalf("unexpected format: %s", s)
	}
}
