package vet

// RuleDoc is the human-facing contract of one rule family. The table below
// backs `xlinkvet -explain <rule>`: the contract and annotation grammar live
// here, next to the rule implementations, and the example finding is produced
// by actually running the rule on its committed fixture — so the explanation
// can never drift from what the analyzer does. Each rule's fixture is
// testdata/fixtures/<Name>; Findings is how many times the rule fires there,
// which `xlinkvet -selftest` and TestFixturesFire both check.
type RuleDoc struct {
	Name        string
	Contract    string   // what the rule proves, one paragraph
	Annotations []string // directives the rule reads, with placement
	Findings    int      // findings the rule reports on its fixture
}

// RuleDocs lists every rule family the analyzer enforces, in the order the
// README table presents them. cmd/xlinkvet's explain test and selftest walk
// this slice, so adding a rule without documenting it fails the suite.
var RuleDocs = []RuleDoc{
	{
		Name: "determinism",
		Contract: "Simulation and experiment code must be reproducible: no wall-clock " +
			"reads, unseeded randomness, or other ambient nondeterminism in packages " +
			"that feed the emulated A/B results.",
		Annotations: []string{
			"//xlinkvet:ignore determinism <why> — suppress a justified site",
		},
		Findings: 5,
	},
	{
		Name: "wireerr",
		Contract: "Every wire-format parse result must have its error checked before " +
			"the decoded value is used; truncated or hostile datagrams must never " +
			"propagate half-parsed state.",
		Findings: 3,
	},
	{
		Name: "panicpath",
		Contract: "No panic may be reachable from datagram-ingest entry points: a " +
			"malformed packet must surface as an error, never as a crash.",
		Findings: 2,
	},
	{
		Name: "maprange",
		Contract: "Map iteration whose order can leak into outputs, schedules, or wire " +
			"bytes must be sorted first; Go randomizes range order per run.",
		Findings: 1,
	},
}

// DocFor returns the documentation entry for a rule name, or nil.
func DocFor(rule string) *RuleDoc {
	for i := range RuleDocs {
		if RuleDocs[i].Name == rule {
			return &RuleDocs[i]
		}
	}
	return nil
}
