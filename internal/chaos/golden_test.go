package chaos

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// updateGolden rewrites the committed golden trace:
//
//	go test ./internal/chaos -run TestGoldenTrace -update
var updateGolden = flag.Bool("update", false, "rewrite the golden trace file")

// goldenScenario is a small, fault-bearing run sized to keep the committed
// trace reviewable while still exercising blackout handling, re-injection,
// the FEC lane (windows, repair symbols, redundancy-controller decisions)
// and the video pipeline.
func goldenScenario() Scenario {
	return Scenario{
		Name: "golden", Seed: 42,
		VideoBytes: 64 << 10,
		Deadline:   2 * time.Second,
		Script: faults.Script{Name: "golden", Ops: []faults.Op{
			faults.Blackout{Path: 0, From: 200 * time.Millisecond, To: 400 * time.Millisecond},
		}},
		Tweak: enableFEC,
	}
}

// TestGoldenTrace pins the exact trace bytes of a fixed (scenario, seed)
// pair. Any diff is either a real behavior change (update the golden file
// in the same commit, and the diff documents the change) or accidental
// nondeterminism (a bug: trace emission must be a pure function of the
// scenario).
func TestGoldenTrace(t *testing.T) {
	sc := goldenScenario()
	sc.Tracer = obs.NewTrace(sc.Name)
	Run(sc)
	got := sc.Tracer.Bytes()

	path := filepath.Join("testdata", "golden.trace")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes, %d events)", path, len(got), sc.Tracer.EventCount())
		return
	}

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden trace missing (run with -update to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Point at the first diverging line rather than dumping both streams.
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("trace diverges from golden at line %d:\n  got:  %s\n  want: %s\n(rerun with -update if the change is intended)",
				i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("trace length differs from golden: got %d lines, want %d (rerun with -update if intended)",
		len(gotLines), len(wantLines))
}

// TestLossySessionDigests pins, by digest, the NDJSON trace bytes and the
// whole Result (ConnStats of both ends, Scorecard, player totals, events after
// the deadline) of the corpus's two-path burst-loss session with re-injection
// alone and with the FEC lane racing it. The digests were re-recorded, with
// golden.trace, when ACKs began to leave only when due and the connection
// timer to be left alone while its deadline holds (DESIGN.md §20) — both
// change what is on the wire and when. Before that they had held since the
// commit before DESIGN.md §19: a timer that is left pending gets its place
// among same-instant events earlier than one that is re-armed, and this is
// the test that would show a delivery and a timer trading places. When
// Result and ConnStats lost their primary-path fields, the result digests
// were re-recorded (only the %+v text changed) and the trace digests held.
// Like golden.trace, a PR that changes behaviour on purpose (or the shape of
// Result) replaces them — the failure prints the new ones.
func TestLossySessionDigests(t *testing.T) {
	for _, want := range []struct{ name, trace, result string }{
		{"ge-dual-reinject-only",
			"dfb6fc110214c40a11471c4c4e70a2c4b38fc92109625bba6472edf554f249b3",
			"23d06fd8007bf9b944377f817c5ddcf94f9078db4c90d019c250ce1d96256809"},
		{"ge-dual-both",
			"ebf3136ba64de6353a0a957c8c879091d6da6f67a20d5ff65c46b5e962813c7d",
			"bf8c4f65fafd91fecca2a728f9057ee027eabaf68004f8b9bbf56ccf66e6f472"},
	} {
		sc, ok := ScenarioByName(want.name)
		if !ok {
			t.Fatalf("%s missing from corpus", want.name)
		}
		sc.Tracer = obs.NewTrace(sc.Name)
		res := Run(sc)
		if res.ServerStats.ReinjectedBytesSent+res.ClientStats.FECRecoveredBytes == 0 || res.ServerStats.RtxBytesSent == 0 {
			t.Fatalf("%s: no loss, or neither recovery lane ran; the session no longer covers what it pins", want.name)
		}
		trace := fmt.Sprintf("%x", sha256.Sum256(sc.Tracer.Bytes()))
		result := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", res))))
		if trace != want.trace || result != want.result {
			t.Errorf("%s: trace %s (want %s)\n  result %s (want %s)", want.name, trace, want.trace, result, want.result)
		}
	}
}
