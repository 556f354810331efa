package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// testScale is every workload at smoke size: a 1 MiB video, 4 sessions per
// arm, 20 requests per live phase.
var testScale = scale{videoBytes: 1 << 20, fleetSessions: 4, tinyRequests: 20, chunkRequests: 20}

var testPlan = plan{
	work:        testScale,
	setup:       scale{videoBytes: 256 << 10, fleetSessions: 1, tinyRequests: 5, chunkRequests: 2},
	minReps:     2,
	setupUnits:  3,
	probeRounds: 1, probeShrink: 50,
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogMatchesManifest holds the program's metric catalog, workloads
// and bounds to what BENCHMARK.json declares to the driver.
func TestCatalogMatchesManifest(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloadNames) {
		t.Fatalf("manifest has %d workloads, program has %d", len(m.Workloads), len(workloadNames))
	}
	for i, w := range m.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest declares %d+%d metrics, program %d+%d", len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	check := func(got metricDef, want metricDef) {
		if got != want {
			t.Errorf("manifest %+v, program %+v", got, want)
		}
		if !nameRE.MatchString(got.Name) || !unitRE.MatchString(got.Unit) {
			t.Errorf("%q (%q): name or unit outside the allowed characters", got.Name, got.Unit)
		}
		if got.Better != "higher" && got.Better != "lower" {
			t.Errorf("%q: better is %q", got.Name, got.Better)
		}
		if seen[got.Name] {
			t.Errorf("%q declared twice", got.Name)
		}
		seen[got.Name] = true
	}
	for i, e := range m.EndToEnd {
		check(metricDef{e.Name, e.Unit, e.Better}, endToEnd[i])
		if e.Bound != bounds[e.Name] || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%q: manifest bound %v, program bound %v (must be in (0, 0.25])", e.Name, e.Bound, bounds[e.Name])
		}
	}
	for i, p := range m.PerLayer {
		check(metricDef{p.Name, p.Unit, p.Better}, perLayer[i])
	}
	if !seen["setup_s"] {
		t.Error("setup_s missing from end_to_end")
	}
}

// parseLine decodes a run's last output line and checks it names exactly the
// metrics of defs, each once, each with its unit.
func parseLine(t *testing.T, out string, defs []metricDef) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var line resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line does not parse: %v\n%s", err, lines[len(lines)-1])
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := line.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %q not emitted", d.Name)
		} else if v.Unit != d.Unit {
			t.Errorf("metric %q emitted with unit %q, declared %q", d.Name, v.Unit, d.Unit)
		}
	}
	if line.Attempted < 1 {
		t.Errorf("attempted = %d", line.Attempted)
	}
	return line
}

// TestWorkloadsSmoke runs every workload end to end and traced at smoke
// scale, through the same code paths and output as a full run.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, _ := workloadByName(name)
			res, err := runE2E(w, testPlan, defaultSeed, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if !res.ok() {
				t.Errorf("correct=%v failed=%d broken=%v", res.Correct, res.Failed, res.Broken)
			}
			var buf bytes.Buffer
			printE2E(&buf, res)
			if err := printLine(&buf, res.verdict, endToEnd, func(n string) float64 { return res.Metrics[n].Median }); err != nil {
				t.Fatal(err)
			}
			line := parseLine(t, buf.String(), endToEnd)
			for n, v := range line.Metrics {
				if !(v.Value > 0) {
					t.Errorf("end-to-end metric %q = %v, must be positive", n, v.Value)
				}
			}
			for _, n := range timings[:2] {
				if !(res.Metrics[n].Median > 0) {
					t.Errorf("timing %q = %v, must be positive on every workload", n, res.Metrics[n].Median)
				}
			}

			lr, err := w.traced(testPlan, defaultSeed, 0.01, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !lr.ok() {
				t.Errorf("traced: correct=%v failed=%d broken=%v", lr.Correct, lr.Failed, lr.Broken)
			}
			buf.Reset()
			printLayers(&buf, lr)
			if err := printLine(&buf, lr.verdict, perLayer, func(n string) float64 { return lr.Values[n] }); err != nil {
				t.Fatal(err)
			}
			parseLine(t, buf.String(), perLayer)
			if len(lr.Values) != len(perLayer) {
				t.Errorf("traced run produced %d values, catalog has %d", len(lr.Values), len(perLayer))
			}
		})
	}
}

// TestCorruptedResponseCountsAsFailure makes the live server flip a byte of
// one response and expects exactly that request to be a failed operation.
func TestCorruptedResponseCountsAsFailure(t *testing.T) {
	w := &liveRR{corrupt: func(id uint64) bool { return id == 7 }}
	o, err := w.session(newLiveInputs(defaultSeed), testScale, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := o.sample(testScale)
	if r.failed != 1 || r.attempted != testScale.tinyRequests+testScale.chunkRequests {
		t.Errorf("failed=%d attempted=%d, want 1 failed of %d", r.failed, r.attempted, testScale.tinyRequests+testScale.chunkRequests)
	}
}

// TestCorruptedSimResponseStillPrintsResult flips one byte of one response
// in every session of a sim run. Each session then has one failed chunk
// request and no verified bytes, and the run must still print a result line
// (finite values, correct false) instead of failing to encode it.
func TestCorruptedSimResponseStillPrintsResult(t *testing.T) {
	w := simBulk{wl: wlBulkClean, corrupt: func(uint64) bool { return true }}
	res, err := runE2E(w, testPlan, defaultSeed, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if sessions := res.Reps + 1; res.Failed != sessions || res.Correct {
		t.Errorf("failed=%d correct=%v, want %d failed (one per session) and not correct", res.Failed, res.Correct, sessions)
	}
	var buf bytes.Buffer
	if err := printLine(&buf, res.verdict, endToEnd, func(n string) float64 { return res.Metrics[n].Median }); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if line := parseLine(t, buf.String(), endToEnd); line.Correct || line.Failed != res.Failed {
		t.Errorf("result line correct=%v failed=%d", line.Correct, line.Failed)
	}
	if g := res.Metrics["e2e.goodput_MiBps"].Median; g != 0 {
		t.Errorf("goodput %v with no verified bytes, want 0", g)
	}
}

// TestRunRejectsBadArguments pins the command line's failure modes: no
// result line, non-zero exit.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"stray"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || strings.Contains(out.String(), `"metrics"`) {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("got %+v", s)
	}
	if got := summarize([]float64{3, 1, 2}); got.Median != 2 || got.Q1 != 1 || got.Q3 != 3 {
		t.Errorf("n=3: %+v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	r := &recorder{}
	r.spans = []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 40, Parent: 0},
		{Name: "child", Start: 50, End: 60, Parent: 0},
		{Name: "leaf", Start: 15, End: 20, Parent: 1},
	}
	st := r.selfTimes()
	if st["root"].selfN != 60 || st["child"].selfN != 35 || st["child"].count != 2 || st["leaf"].selfN != 5 {
		t.Errorf("self times %+v", st)
	}
}
