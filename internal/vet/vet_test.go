package vet

import (
	"path/filepath"
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

// loadFixturePkg type-checks one violation fixture under an assumed import
// path and returns it with the config that applies every rule to it.
func loadFixturePkg(t *testing.T, name string) (*Config, *Package) {
	t.Helper()
	fixtures.once.Do(func() { fixtures.loader, fixtures.err = NewLoader(".") })
	if fixtures.err != nil {
		t.Fatal(fixtures.err)
	}
	loader := fixtures.loader
	dir := filepath.Join(loader.ModDir, "internal", "vet", "testdata", "fixtures", name)
	asPath := "fixture/" + name
	pkg, err := loader.LoadDirAs(dir, asPath)
	if err != nil {
		t.Fatal(err)
	}
	return FixtureConfig(loader.ModPath, asPath), pkg
}

// loadFixture runs every rule over one fixture, mirroring `xlinkvet
// -selftest`.
func loadFixture(t *testing.T, name string) []Finding {
	t.Helper()
	cfg, pkg := loadFixturePkg(t, name)
	return Run(cfg, []*Package{pkg})
}

// TestFixturesFire pins the exact number of findings each rule produces on
// its committed fixture, so a regression that silently disables a rule (or
// one that over-reports) fails the ordinary test suite, not only the
// `xlinkvet -selftest` gate.
func TestFixturesFire(t *testing.T) {
	cases := []struct {
		fixture  string
		rule     string
		expected int
	}{
		{"determinism", "determinism", 5},
		{"wireerr", "wireerr", 3},
		{"panicpath", "panicpath", 2},
		{"maprange", "maprange", 1},
		{"lockheld", "lockheld", 7},
		{"guardedby", "guardedby", 4},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			findings := loadFixture(t, tc.fixture)
			got := 0
			for _, f := range findings {
				if f.Rule != tc.rule {
					t.Errorf("unexpected rule: %s", f)
					continue
				}
				got++
			}
			if got != tc.expected {
				for _, f := range findings {
					t.Logf("finding: %s", f)
				}
				t.Fatalf("rule %s fired %d time(s), want %d", tc.rule, got, tc.expected)
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
