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
		Name: "obsevent",
		Contract: "Observability events must be emitted through the obs.Origin " +
			"singleton with registered event names, so the flight recorder and " +
			"scorecards see a closed vocabulary.",
		Fixture: "obsevent",
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
	{
		Name: "taintsize",
		Contract: "Attacker-controlled length fields must be bounds-checked before " +
			"sizing allocations or slice operations; taint flows through assignments " +
			"and calls until a comparison sanitizes it.",
		Fixture: "taintsize",
	},
	{
		Name: "hotalloc",
		Contract: "Functions marked hot — and everything statically reachable from " +
			"them — must be allocation-free in the steady state; documented cold " +
			"branches are pruned.",
		Annotations: []string{
			"// xlinkvet:hot — on a function declaration",
			"//xlinkvet:cold <why> — on (or above) an if statement guarding a slow path",
		},
		Fixture: "hotalloc",
	},
	{
		Name: "connstate",
		Contract: "Connection-lifecycle typestate over the annotated state machine " +
			"idle → handshaking → active → closing → draining → closed: transitions " +
			"must move forward; a method transitioning to closing or later must not " +
			"reach methods gated on earlier states; every terminal transition to " +
			"closed must release timers and trace a close event — silent deaths are " +
			"undebuggable at fleet scale.",
		Annotations: []string{
			"// xlinkvet:state <from>[,<from>] -> <to> — on a transition method",
			"// xlinkvet:requires <state>[,<state>] — on a state-gated method",
			"// xlinkvet:releases timers — on the timer-disarm function",
			"// xlinkvet:closeevent — on the close-trace emitter",
		},
		Fixture: "connstate",
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
