package vet

// RuleDoc is the human-facing contract of one rule family. The table below
// backs `xlinkvet -explain <rule>`: the contract and annotation grammar live
// here, next to the rule implementations, and the example finding is produced
// by actually running the rule on its committed fixture — so the explanation
// can never drift from what the analyzer does.
type RuleDoc struct {
	Name        string
	Contract    string   // what the rule proves, one paragraph
	Annotations []string // directives the rule reads, with placement
	Fixture     string   // fixture dir under testdata/fixtures sourcing the example
}

// RuleDocs lists every rule family the analyzer enforces, in the order the
// README table presents them. cmd/xlinkvet's explain test walks this slice,
// so adding a rule without documenting it fails the suite.
var RuleDocs = []RuleDoc{
	{
		Name: "determinism",
		Contract: "Simulation and experiment code must be reproducible: no wall-clock " +
			"reads, unseeded randomness, or other ambient nondeterminism in packages " +
			"that feed the emulated A/B results.",
		Annotations: []string{
			"//xlinkvet:ignore determinism <why> — suppress a justified site",
		},
		Fixture: "determinism",
	},
	{
		Name: "wireerr",
		Contract: "Every wire-format parse result must have its error checked before " +
			"the decoded value is used; truncated or hostile datagrams must never " +
			"propagate half-parsed state.",
		Fixture: "wireerr",
	},
	{
		Name: "panicpath",
		Contract: "No panic may be reachable from datagram-ingest entry points: a " +
			"malformed packet must surface as an error, never as a crash.",
		Fixture: "panicpath",
	},
	{
		Name: "maprange",
		Contract: "Map iteration whose order can leak into outputs, schedules, or wire " +
			"bytes must be sorted first; Go randomizes range order per run.",
		Fixture: "maprange",
	},
	{
		Name: "lockheld",
		Contract: "No blocking operation (channel send/receive, Wait, I/O) may be " +
			"reachable while a mutex is held, on any interprocedural path; findings " +
			"carry the call chain (via A → B).",
		Fixture: "lockheld",
	},
	{
		Name: "guardedby",
		Contract: "Fields annotated as lock-guarded may only be touched with the " +
			"named mutex held, checked through the same call-graph closure lockheld " +
			"uses.",
		Annotations: []string{
			"// xlinkvet:guardedby <mutexField> — on a struct field's doc comment",
			"// xlinkvet:guardedby confined — the field is event-loop-confined;",
			"    goroutine-launched paths must not touch it",
			"//xlinkvet:confines <why> — on (or above) a `go` statement: the goroutine",
			"    constructs every confined structure it drives, so confinement",
			"    transfers into it instead of being violated by it",
		},
		Fixture: "guardedby",
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
