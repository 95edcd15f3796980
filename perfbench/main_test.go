package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"subcache/internal/service"
	"subcache/internal/sweep"
)

// result is the final line the benchmark prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runShort runs one short service-mix measurement (its set-up plus one
// second of mix) and returns the exit code, stdout and stderr.  One
// second makes far fewer fresh jobs than a measured run, so unless b
// says otherwise a single one is enough.
func runShort(t *testing.T, b *bench) (int, string, string) {
	t.Helper()
	if b == nil {
		b = &bench{}
	}
	if b.minFresh == 0 {
		b.minFresh = 1
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"--workload", serviceMix, "--seed", "3", "--seconds", "1", "--trace", "0",
		"--benchmark", "../BENCHMARK.json", "--dir", t.TempDir(),
	}, &stdout, &stderr, b)
	return code, stdout.String(), stderr.String()
}

// runShortResult is runShort with the result line parsed.
func runShortResult(t *testing.T, b *bench) (int, result, string) {
	t.Helper()
	code, stdout, stderr := runShort(t, b)
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\nstdout:\n%s\nstderr:\n%s", err, stdout, stderr)
	}
	return code, r, stderr
}

func TestHealthyRunPasses(t *testing.T) {
	code, r, stderr := runShortResult(t, nil)
	if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("healthy run: exit %d, %+v\n%s", code, r, stderr)
	}
	decl, err := readDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range decl.EndToEnd {
		got, ok := r.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || got.Value <= 0 {
			t.Errorf("metric %s: %+v, want a positive value in %s", m.Name, got, m.Unit)
		}
	}
}

// A result that differs from the pinned Reference digest must fail the
// operation and the command.
func TestPerturbedDigestFails(t *testing.T) {
	digests := map[string]string{}
	for k, v := range pinned {
		digests[k] = v
	}
	digests["service-mix/VAX-11"] = strings.Repeat("0", 64)
	code, r, _ := runShortResult(t, &bench{digests: digests})
	if code == 0 || r.Correct || r.Failed == 0 {
		t.Fatalf("perturbed digest: exit %d, %+v; want a failed operation and a non-zero exit", code, r)
	}
}

// A service whose cache cannot hold the pool simulates repeats again:
// that duplicate simulation must fail the command.
func TestDuplicateSimulationFails(t *testing.T) {
	tiny := func(dir string) service.Options { return service.Options{Dir: dir, CacheMaxBytes: 1} }
	code, r, stderr := runShortResult(t, &bench{serviceOptions: tiny})
	if code == 0 || r.Correct || r.Failed == 0 {
		t.Fatalf("duplicate simulation: exit %d, %+v; want a failed operation and a non-zero exit", code, r)
	}
	if !strings.Contains(stderr, "requests_admitted") {
		t.Errorf("the admission check did not report the duplicate:\n%s", stderr)
	}
}

// A run with too few fresh jobs for its latency quantiles is a harness
// error: it exits non-zero and prints no result.
func TestTooFewFreshJobsFails(t *testing.T) {
	code, stdout, stderr := runShort(t, &bench{minFresh: 1 << 30})
	if code == 0 || strings.Contains(stdout, `"correct"`) || !strings.Contains(stderr, "fresh jobs") {
		t.Fatalf("too few fresh jobs: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

// A fresh reply whose result differs from the Reference engine's must
// fail the operation.
func TestWrongFreshResultFails(t *testing.T) {
	b := &bench{seed: 3, rep: &report{}, spans: newTracer(false)}
	w := service.SweepRequest{Arch: "PDP-11", Nets: freshPairs[0], Refs: mixRefs}
	good := &mixOutcome{served: []freshReply{{w, servedDigestOf(mustRun(t, sweepRequestOf(w)))}}}
	verifyFresh(b, good, nil)
	if b.rep.failed != 0 {
		t.Fatalf("a correct fresh reply failed: %v", b.rep.failures)
	}
	bad := &mixOutcome{served: []freshReply{{w, strings.Repeat("0", 64)}}}
	verifyFresh(b, bad, nil)
	if b.rep.failed != 1 {
		t.Fatalf("a wrong fresh reply: %d failures, want 1", b.rep.failed)
	}
}

func mustRun(t *testing.T, req sweep.Request) *sweep.Result {
	t.Helper()
	res, err := sweep.RunContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSelfTimeExcludesChildren(t *testing.T) {
	tr := newTracer(true)
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "bench.run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "sweep.RunContext", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "sweep.RunContext", Start: 30, End: 60}, // overlaps its sibling
		{ID: 3, Parent: 1, Name: "multipass.New", Start: 20, End: 25},
	}
	want := []int64{50, 25, 30, 5}
	for i, d := range tr.selfTimes() {
		if int64(d) != want[i] {
			t.Errorf("span %d self time %d, want %d", i, d, want[i])
		}
	}
}
