package vet

import (
	"fmt"
	"go/types"
	"sort"
	"strings"
)

// --- rule: connstate ---
//
// An annotated state machine over the connection/endpoint lifecycle,
// following RFC 9000's ordering:
//
//	idle → handshaking → active → closing → draining → closed
//
// `//xlinkvet:state <from>[,<from>] -> <to>` marks a transition method;
// `//xlinkvet:requires <states>` (or `requires(<states>)`) gates a method to
// the listed states. The rule proves:
//
//   - annotations are well-formed and name known states;
//   - transitions only move forward (closing never returns to active);
//   - a transition into closing or later reaches no method gated on an
//     earlier state — no send, stream open, or path add after close begins,
//     checked through the static call graph with via-paths;
//   - every transition to closed releases timers (reaches a function
//     declared `xlinkvet:releases timers`) and traces a close event
//     (reaches a `xlinkvet:closeevent` emitter) — a terminal state that
//     leaves a timer armed resurrects the connection, one that exits
//     silently is undebuggable at fleet scale (Sec. 5 of the paper).

// stateRank orders the lifecycle; aliases map onto the same rank so
// packages may keep their local vocabulary (handshake/handshaking,
// established/active).
var stateRank = map[string]int{
	"idle":        0,
	"handshake":   1,
	"handshaking": 1,
	"established": 2,
	"active":      2,
	"closing":     3,
	"draining":    4,
	"closed":      5,
}

const (
	rankClosing = 3
	rankClosed  = 5
)

func knownStates() string {
	names := make([]string, 0, len(stateRank))
	for s := range stateRank {
		names = append(names, s)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func checkConnState(eng *engine) []Finding {
	var out []Finding

	// Validate `requires` annotations first: a typo'd gate would silently
	// drop the method from every transition check below.
	for _, sum := range eng.sums {
		if sum.requires == nil {
			continue
		}
		fset := sum.pkg.Fset
		if len(sum.requires) == 0 {
			out = append(out, Finding{
				Pos:  fset.Position(sum.node.Pos()),
				Rule: "connstate",
				Msg:  fmt.Sprintf("xlinkvet:requires on %s names no states (known: %s)", sum.name, knownStates()),
			})
			continue
		}
		for _, s := range sum.requires {
			if _, ok := stateRank[s]; !ok {
				out = append(out, Finding{
					Pos:  fset.Position(sum.node.Pos()),
					Rule: "connstate",
					Msg:  fmt.Sprintf("unknown lifecycle state %q in xlinkvet:requires on %s (known: %s)", s, sum.name, knownStates()),
				})
			}
		}
	}

	for _, sum := range eng.sums {
		t := sum.transition
		if t == nil {
			continue
		}
		fset := sum.pkg.Fset
		if t.to == "" {
			out = append(out, Finding{
				Pos:  fset.Position(t.pos),
				Rule: "connstate",
				Msg:  fmt.Sprintf("malformed xlinkvet:state annotation %q on %s; expected `<from>[,<from>] -> <to>`", t.raw, sum.name),
			})
			continue
		}
		toRank, toKnown := stateRank[t.to]
		if !toKnown {
			out = append(out, Finding{
				Pos:  fset.Position(t.pos),
				Rule: "connstate",
				Msg:  fmt.Sprintf("unknown lifecycle state %q in xlinkvet:state on %s (known: %s)", t.to, sum.name, knownStates()),
			})
			continue
		}
		badFrom := false
		for _, from := range t.froms {
			fromRank, ok := stateRank[from]
			if !ok {
				out = append(out, Finding{
					Pos:  fset.Position(t.pos),
					Rule: "connstate",
					Msg:  fmt.Sprintf("unknown lifecycle state %q in xlinkvet:state on %s (known: %s)", from, sum.name, knownStates()),
				})
				badFrom = true
				continue
			}
			if fromRank >= toRank {
				out = append(out, Finding{
					Pos:  fset.Position(t.pos),
					Rule: "connstate",
					Msg: fmt.Sprintf("backward lifecycle transition %s -> %s on %s: the lifecycle only moves forward (a new connection gets a new state machine)",
						from, t.to, sum.name),
				})
			}
		}
		if badFrom || sum.fn == nil {
			continue
		}

		// Closing+ transitions must not reach methods gated on earlier
		// states: after this method runs the object is in t.to, and every
		// synchronous callee runs in (at best) that state.
		if toRank >= rankClosing {
			for _, ref := range eng.reqMethods(sum.fn) {
				states := eng.requiresOf[ref.fn]
				allowed := false
				for _, s := range states {
					if r, ok := stateRank[s]; ok && r == toRank {
						allowed = true
						break
					}
				}
				if allowed {
					continue
				}
				refSum := eng.byFn[ref.fn]
				refName := ref.fn.Name()
				if refSum != nil {
					refName = refSum.name
				}
				out = append(out, Finding{
					Pos:  fset.Position(ref.pos),
					Rule: "connstate",
					Msg: fmt.Sprintf("transition to %s in %s reaches %s%s, which requires state %s — illegal once the connection is %s",
						t.to, sum.name, refName, viaText(ref.via), strings.Join(states, "|"), t.to),
				})
			}
		}

		// Terminal hygiene: a transition into closed must disarm timers and
		// leave a trace.
		if toRank == rankClosed {
			if !eng.reachesMarked(sum.fn, eng.releasers, map[*types.Func]bool{}) {
				out = append(out, Finding{
					Pos:  fset.Position(t.pos),
					Rule: "connstate",
					Msg: fmt.Sprintf("terminal transition to closed in %s releases no timers: no path reaches a `xlinkvet:releases timers` function — an armed timer resurrects the dead connection",
						sum.name),
				})
			}
			if !eng.reachesMarked(sum.fn, eng.closeEmits, map[*types.Func]bool{}) {
				out = append(out, Finding{
					Pos:  fset.Position(t.pos),
					Rule: "connstate",
					Msg: fmt.Sprintf("terminal transition to closed in %s traces no close event: no path reaches a `xlinkvet:closeevent` emitter — silent deaths are undebuggable at fleet scale",
						sum.name),
				})
			}
		}
	}
	return out
}

func viaText(via []string) string {
	if len(via) == 0 {
		return ""
	}
	return " via " + strings.Join(via, " → ")
}
