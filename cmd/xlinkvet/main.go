// Command xlinkvet is the repo-specific static analyzer for the XLINK
// reproduction. It enforces the determinism and robustness invariants the
// emulated experiments depend on; see internal/vet and DESIGN.md
// ("Determinism & correctness tooling") for the rule catalogue.
//
// Usage:
//
//	xlinkvet ./...                 analyze the whole module (exit 1 on findings)
//	xlinkvet -json ./...           same, but emit findings as a JSON array on
//	                               stdout (deterministic file:line:rule order)
//	xlinkvet -as <path> <dir>      analyze one directory under an assumed
//	                               import path, applying every rule (used to
//	                               prove rules fire on the testdata fixtures)
//	xlinkvet -selftest             run the committed violation fixtures and
//	                               verify every rule fires where expected
//	                               (exit 1 if the analyzer lost a rule)
//	xlinkvet -explain <rule>       print one rule's contract, the annotations
//	                               it reads, and an example finding produced
//	                               live from its fixture corpus
//
// The one comment directive the analyzer reads:
//
//	//xlinkvet:ignore <rule>[,<rule>] <why>
//	    on the same or preceding line: suppress the listed rules' findings
//	    (empty list = all rules) with a free-form justification.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/vet"
)

func main() {
	asPath := flag.String("as", "", "treat the single directory argument as this import path and apply every rule")
	selftest := flag.Bool("selftest", false, "verify each rule fires on the committed violation fixtures")
	explain := flag.String("explain", "", "print one rule's contract, annotations, and a fixture-sourced example finding")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	verbose := flag.Bool("v", false, "print type-check diagnostics")
	flag.Parse()

	loader, err := vet.NewLoader(".")
	if err != nil {
		fatal(err)
	}

	switch {
	case *explain != "":
		os.Exit(runExplain(os.Stdout, loader, *explain))
	case *selftest:
		os.Exit(runSelftest(loader, *verbose))
	case *asPath != "":
		if flag.NArg() != 1 {
			fatal(fmt.Errorf("-as requires exactly one directory argument"))
		}
		pkg, err := loader.LoadDirAs(flag.Arg(0), *asPath)
		if err != nil {
			fatal(err)
		}
		reportTypeErrs(*verbose, pkg)
		findings := vet.Run(vet.FixtureConfig(loader.ModPath, *asPath), []*vet.Package{pkg})
		os.Exit(report(findings, *jsonOut))
	default:
		pkgs, err := loader.LoadModule()
		if err != nil {
			fatal(err)
		}
		for _, pkg := range pkgs {
			reportTypeErrs(*verbose, pkg)
		}
		cfg := vet.DefaultConfig(loader.ModPath)
		findings := vet.Run(cfg, pkgs)
		findings = filterByArgs(findings, flag.Args(), loader.ModDir)
		os.Exit(report(findings, *jsonOut))
	}
}

// filterByArgs narrows findings to the requested package patterns. `./...`
// (or no argument) keeps everything; `./internal/wire` style arguments keep
// findings under those directories.
func filterByArgs(findings []vet.Finding, args []string, modDir string) []vet.Finding {
	var prefixes []string
	for _, a := range args {
		if a == "./..." || a == "..." {
			return findings
		}
		dir := strings.TrimSuffix(a, "/...")
		dir = strings.TrimPrefix(dir, "./")
		if st, err := os.Stat(modDir + "/" + dir); err != nil || !st.IsDir() {
			fatal(fmt.Errorf("no such package directory: %s", a))
		}
		prefixes = append(prefixes, modDir+"/"+dir)
	}
	if len(prefixes) == 0 {
		return findings
	}
	var out []vet.Finding
	for _, f := range findings {
		for _, p := range prefixes {
			if strings.HasPrefix(f.Pos.Filename, p) {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

// jsonFinding is the machine-readable finding shape emitted by -json.
// vet.Run already sorts findings by file, line, rule (column as the final
// tiebreak), so the array order is deterministic across runs.
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

// writeJSON emits findings as an indented JSON array. vet.Run's sort order
// makes the emission deterministic, which the golden-output test pins.
func writeJSON(w io.Writer, findings []vet.Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
			Rule: f.Rule, Msg: f.Msg,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func report(findings []vet.Finding, jsonOut bool) int {
	if jsonOut {
		if err := writeJSON(os.Stdout, findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "xlinkvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// runExplain prints one rule family's contract and annotation grammar from
// the vet.RuleDocs table, then runs the rule on its committed fixture and
// shows the first finding as a live example — the documentation is sourced
// from the same code paths the sweep uses, so it cannot drift.
func runExplain(w io.Writer, loader *vet.Loader, rule string) int {
	doc := vet.DocFor(rule)
	if doc == nil {
		names := make([]string, 0, len(vet.RuleDocs))
		for _, d := range vet.RuleDocs {
			names = append(names, d.Name)
		}
		fmt.Fprintf(os.Stderr, "xlinkvet: unknown rule %q; rules: %s\n", rule, strings.Join(names, ", "))
		return 2
	}
	fmt.Fprintf(w, "rule %s\n\n", doc.Name)
	fmt.Fprintf(w, "  %s\n", doc.Contract)
	if len(doc.Annotations) > 0 {
		fmt.Fprintf(w, "\nannotations\n\n")
		for _, a := range doc.Annotations {
			fmt.Fprintf(w, "  %s\n", a)
		}
	}
	cfg, pkg, err := loader.LoadFixture(doc.Name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xlinkvet: load fixture %s: %v\n", doc.Name, err)
		return 2
	}
	for _, f := range vet.Run(cfg, []*vet.Package{pkg}) {
		if f.Rule != doc.Name {
			continue
		}
		fmt.Fprintf(w, "\nexample finding (from testdata/fixtures/%s)\n\n", doc.Name)
		fmt.Fprintf(w, "  %s\n", f)
		return 0
	}
	fmt.Fprintf(os.Stderr, "xlinkvet: rule %s produced no finding on its fixture\n", doc.Name)
	return 2
}

// runSelftest loads each rule's fixture under internal/vet/testdata/fixtures
// and checks that the rule, and no other, fires there as often as
// vet.RuleDocs says, proving the analyzer still detects every violation
// class it promises to.
func runSelftest(loader *vet.Loader, verbose bool) int {
	failed := false
	for _, doc := range vet.RuleDocs {
		cfg, pkg, err := loader.LoadFixture(doc.Name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "selftest %s: load: %v\n", doc.Name, err)
			failed = true
			continue
		}
		reportTypeErrs(verbose, pkg)
		got := 0
		for _, f := range vet.Run(cfg, []*vet.Package{pkg}) {
			if f.Rule == doc.Name {
				got++
			} else {
				fmt.Fprintf(os.Stderr, "selftest %s: unexpected %s\n", doc.Name, f)
				failed = true
			}
			if verbose {
				fmt.Println(f)
			}
		}
		if got != doc.Findings {
			fmt.Fprintf(os.Stderr, "selftest %s: rule fired %d time(s), want %d\n",
				doc.Name, got, doc.Findings)
			failed = true
			continue
		}
		fmt.Printf("selftest %-12s ok (%d finding(s))\n", doc.Name, got)
	}
	if failed {
		return 1
	}
	fmt.Println("selftest: all rules fire on their fixtures")
	return 0
}

func reportTypeErrs(verbose bool, pkg *vet.Package) {
	if !verbose {
		return
	}
	for _, err := range pkg.TypeErrs {
		fmt.Fprintf(os.Stderr, "typecheck %s: %v\n", pkg.Path, err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xlinkvet:", err)
	os.Exit(2)
}
