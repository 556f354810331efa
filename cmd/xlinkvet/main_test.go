package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/vet"
)

var update = flag.Bool("update", false, "rewrite the golden -json files")

// TestJSONGolden pins the -json output on two rule fixtures byte for byte:
// finding order (vet.Run sorts by file, line, rule, column), field names,
// and message wording are all part of the machine-readable contract other
// tooling parses. Absolute fixture paths are relativized to the module root
// so the golden files are machine-independent.
func TestJSONGolden(t *testing.T) {
	loader, err := vet.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, fixture := range []string{"determinism", "wireerr"} {
		t.Run(fixture, func(t *testing.T) {
			cfg, pkg, err := loader.LoadFixture(fixture)
			if err != nil {
				t.Fatal(err)
			}
			findings := vet.Run(cfg, []*vet.Package{pkg})
			var buf bytes.Buffer
			if err := writeJSON(&buf, findings); err != nil {
				t.Fatal(err)
			}
			got := strings.ReplaceAll(buf.String(), loader.ModDir, "")

			golden := filepath.Join("testdata", "golden", fixture+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if got != string(want) {
				t.Errorf("-json output drifted from %s (run with -update to regenerate)\ngot:\n%s\nwant:\n%s",
					golden, got, want)
			}
		})
	}
}

// TestExplain walks the whole RuleDocs table through runExplain: every rule
// family must document itself and produce a live example finding from its
// fixture, so the -explain output can never drift from the analyzer.
func TestExplain(t *testing.T) {
	loader, err := vet.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range vet.RuleDocs {
		t.Run(doc.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if code := runExplain(&buf, loader, doc.Name); code != 0 {
				t.Fatalf("runExplain(%s) = %d, want 0", doc.Name, code)
			}
			out := buf.String()
			for _, want := range []string{"rule " + doc.Name, "example finding", "[" + doc.Name + "]"} {
				if !strings.Contains(out, want) {
					t.Errorf("explain %s output missing %q:\n%s", doc.Name, want, out)
				}
			}
		})
	}
	if code := runExplain(&bytes.Buffer{}, loader, "nosuch"); code != 2 {
		t.Errorf("runExplain(nosuch) = %d, want 2", code)
	}
}
