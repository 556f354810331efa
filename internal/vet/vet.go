// Package vet implements xlinkvet, the repo-specific static analyzer that
// enforces the determinism and robustness invariants the XLINK reproduction
// depends on (see DESIGN.md §7, "Determinism & correctness tooling"):
//
//   - determinism: no wall-clock time or global math/rand in deterministic
//     packages — time and randomness must flow through internal/sim so
//     experiment figures are bit-reproducible.
//   - wireerr: every error returned by a wire parse/decode function must be
//     checked; malformed-input errors silently dropped become desyncs.
//   - panicpath: no explicit panic reachable from attacker-controlled parse
//     paths (wire parsers, transport packet ingestion).
//   - maprange: no unordered map iteration in deterministic packages unless
//     the enclosing function re-establishes order with a sort.
//
// Each rule is here because the mutation audit in DESIGN.md §7
// (scripts/mutate.sh) found a bug in the real tree that only it catches. A
// file that does not parse aborts the sweep with the parser's error.
//
// Findings can be suppressed per line with `//xlinkvet:ignore <rules>` on
// the same or the preceding line, where <rules> is a comma-separated rule
// list (empty = all rules); everything after the list is free-form
// justification.
//
// The analyzer is stdlib-only: go/parser + go/ast + go/types with a source
// importer, no external dependencies. Loading and per-package analysis are
// parallelized across GOMAXPROCS.
package vet

import (
	"fmt"
	"go/token"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Finding is one rule violation.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String formats a finding in the usual file:line:col style.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Config scopes the rules to package sets. Package matching is by import
// path prefix: an entry matches the path itself and everything below it.
type Config struct {
	// DeterministicPkgs are packages whose results must be bit-reproducible:
	// the determinism and maprange rules apply.
	DeterministicPkgs []string
	// NonDeterministicPkgs are carved out of DeterministicPkgs (e.g. the sim
	// package itself, which owns the real clock).
	NonDeterministicPkgs []string
	// WirePkgs hold the wire codec: parse-function error results must be
	// checked (wireerr) and parse functions must not panic (panicpath).
	WirePkgs []string
	// IngestPkgs receive attacker-controlled datagrams: their ingestion
	// functions must not panic (panicpath).
	IngestPkgs []string
	// SkipPkgs are not analyzed at all (binaries, examples, tooling).
	SkipPkgs []string
}

// FixtureConfig returns a config that applies every rule to the single
// package path given — used by the self-test to run rules against violation
// fixtures under testdata. The module's real wire package stays in scope so
// fixtures can exercise the wireerr rule against actual wire.Parse* calls.
func FixtureConfig(module, path string) *Config {
	return &Config{
		DeterministicPkgs: []string{path},
		WirePkgs:          []string{path, module + "/internal/wire"},
		IngestPkgs:        []string{path},
	}
}

// DefaultConfig returns the rule scoping for this repository, given the
// module path (normally "repro"). cmd/ and examples/ binaries are
// allowlisted: they live at the real-time boundary and may read the wall
// clock. internal/sim is the deterministic substrate itself, and
// internal/vet + internal/assert are tooling.
func DefaultConfig(module string) *Config {
	p := func(s string) string { return module + "/" + s }
	return &Config{
		DeterministicPkgs: []string{p("internal"), p("xlink")},
		NonDeterministicPkgs: []string{
			p("internal/sim"), p("internal/vet"), p("internal/assert"),
		},
		WirePkgs:   []string{p("internal/wire")},
		IngestPkgs: []string{p("internal/transport")},
		SkipPkgs: []string{
			p("cmd"), p("examples"), p("internal/vet"), p("internal/assert"),
		},
	}
}

// matchPkg reports whether path falls under any of the prefixes.
func matchPkg(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func (c *Config) deterministic(path string) bool {
	return matchPkg(path, c.DeterministicPkgs) && !matchPkg(path, c.NonDeterministicPkgs)
}

func (c *Config) skipped(path string) bool { return matchPkg(path, c.SkipPkgs) }

// Run applies every rule to the loaded packages and returns the surviving
// findings (ignore directives already applied), sorted by file, line, rule.
// The per-package rules run on GOMAXPROCS workers.
func Run(cfg *Config, pkgs []*Package) []Finding {
	var active []*Package
	for _, pkg := range pkgs {
		if !cfg.skipped(pkg.Path) {
			active = append(active, pkg)
		}
	}

	// Single-package rules: independent across packages.
	perPkg := make([][]Finding, len(active))
	parallelDo(len(active), func(i int) {
		pkg := active[i]
		var fs []Finding
		fs = append(fs, checkDeterminism(cfg, pkg)...)
		fs = append(fs, checkWireErr(cfg, pkg)...)
		fs = append(fs, checkMapRange(cfg, pkg)...)
		perPkg[i] = fs
	})
	var findings []Finding
	for _, fs := range perPkg {
		findings = append(findings, fs...)
	}
	// The panic-path analysis follows calls across packages.
	findings = append(findings, checkPanicPath(cfg, active)...)

	var kept []Finding
	for _, f := range findings {
		pkg := pkgByFile(pkgs, f.Pos.Filename)
		if pkg != nil && pkg.ignored(f.Pos, f.Rule) {
			continue
		}
		kept = append(kept, f)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if kept[i].Rule != kept[j].Rule {
			return kept[i].Rule < kept[j].Rule
		}
		return a.Column < b.Column
	})
	return kept
}

func pkgByFile(pkgs []*Package, filename string) *Package {
	for _, p := range pkgs {
		if _, ok := p.ignores[filename]; ok {
			return p
		}
	}
	return nil
}

// parallelDo runs fn(0..n-1) on up to GOMAXPROCS workers. With one worker
// (or one item) it degenerates to a plain loop, so single-core machines
// pay no synchronization overhead.
func parallelDo(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
