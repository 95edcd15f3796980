package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"subcache/internal/cache"
	"subcache/internal/metrics"
	"subcache/internal/synth"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "sweep.ckpt")
}

// TestJournalRoundTrip: recorded entries survive a close/reopen and
// load back verbatim.
func TestJournalRoundTrip(t *testing.T) {
	path := tmpJournal(t)
	pts := []Point{{Net: 64, Block: 8, Sub: 2}, {Net: 64, Block: 8, Sub: 4}}
	runs := map[Point]metrics.Run{
		pts[0]: {Trace: "ED", Miss: 0.25, Traffic: 1.5},
		pts[1]: {Trace: "ED", Miss: 0.125, Traffic: 0.75},
	}

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("fp1", "ED", pts, runs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Skipped != 0 {
		t.Errorf("Skipped = %d, want 0", j2.Skipped)
	}
	got, ok := j2.Lookup("fp1", "ED")
	if !ok {
		t.Fatal("recorded entry missing after reopen")
	}
	if !reflect.DeepEqual(got, runs) {
		t.Errorf("round trip changed runs\n got:  %v\n want: %v", got, runs)
	}
	if _, ok := j2.Lookup("fp2", "ED"); ok {
		t.Error("lookup matched a foreign fingerprint")
	}
	if _, ok := j2.Lookup("fp1", "CCP"); ok {
		t.Error("lookup matched an unrecorded workload")
	}
}

// TestJournalRejectsCorruption: garbage lines, torn tails and tampered
// payloads are skipped on load -- never half-trusted -- while valid
// entries around them survive.
func TestJournalRejectsCorruption(t *testing.T) {
	path := tmpJournal(t)
	pts := []Point{{Net: 64, Block: 8, Sub: 2}}
	runs := map[Point]metrics.Run{pts[0]: {Trace: "ED", Miss: 0.5}}

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("fp", "ED", pts, runs); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("fp", "CCP", pts, runs); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with the second entry's payload (flip a digit inside the
	// miss ratio) without touching its checksum, inject a garbage line,
	// and tear the tail off a duplicated first line.
	lines := splitLines(t, data)
	tampered := append([]byte(nil), lines[0]...)
	tampered = append(tampered, '\n')
	bad := []byte(nil)
	bad = append(bad, lines[1]...)
	for i := range bad {
		if bad[i] == '5' {
			bad[i] = '6'
			break
		}
	}
	tampered = append(tampered, bad...)
	tampered = append(tampered, '\n')
	tampered = append(tampered, []byte("{not json at all\n")...)
	tampered = append(tampered, lines[0][:len(lines[0])/2]...) // torn tail
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Skipped != 3 {
		t.Errorf("Skipped = %d, want 3 (tampered, garbage, torn)", j2.Skipped)
	}
	if _, ok := j2.Lookup("fp", "ED"); !ok {
		t.Error("valid entry lost to surrounding corruption")
	}
	if _, ok := j2.Lookup("fp", "CCP"); ok {
		t.Error("tampered entry was trusted")
	}
}

// TestJournalRecordAfterTornTail is the SIGKILL-then-resume path: a
// journal whose last line was torn mid-append is reopened and a
// workload recorded again.  That record must stand on its own line and
// read back on the next open, not be glued onto the torn bytes and lost
// with them.
func TestJournalRecordAfterTornTail(t *testing.T) {
	path := tmpJournal(t)
	pts := []Point{{Net: 64, Block: 8, Sub: 2}}
	runs := map[Point]metrics.Run{pts[0]: {Trace: "CCP", Miss: 0.5}}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"ED", "CCP"} {
		if err := j.Record("fp", w, pts, runs); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(t, data)
	if err := os.WriteFile(path, data[:len(lines[0])+1+len(lines[1])/2], 0o644); err != nil {
		t.Fatal(err)
	}

	j, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Lookup("fp", "CCP"); ok {
		t.Fatal("torn entry was trusted")
	}
	if err := j.Record("fp", "CCP", pts, runs); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if got, ok := j.Lookup("fp", "CCP"); !ok || !reflect.DeepEqual(got, runs) {
		t.Fatalf("entry recorded after a torn tail lost on reopen (Skipped = %d)", j.Skipped)
	}
	if j.Skipped != 1 {
		t.Errorf("Skipped = %d, want 1 (the torn line)", j.Skipped)
	}
}

// FuzzCheckpointJournal: OpenJournal never panics or fails on arbitrary
// file contents, and an entry recorded after any garbage reads back on
// the next open.
func FuzzCheckpointJournal(f *testing.F) {
	pts := []Point{{Net: 64, Block: 8, Sub: 2}, {Net: 64, Block: 16, Sub: 4}}
	runs := map[Point]metrics.Run{
		pts[0]: {Trace: "ED", Miss: 0.25, Traffic: 1.5},
		pts[1]: {Trace: "ED", Miss: 0.1, Accesses: 7},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := tmpJournal(t)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Record("fp", "ED", pts, runs); err != nil {
			t.Fatal(err)
		}
		j.Close()
		j, err = OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if got, ok := j.Lookup("fp", "ED"); !ok || !reflect.DeepEqual(got, runs) {
			t.Fatalf("entry recorded after %q lost on reopen (Skipped = %d)", data, j.Skipped)
		}
	})
}

func splitLines(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var lines [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			lines = append(lines, data[start:i])
			start = i + 1
		}
	}
	if len(lines) < 2 {
		t.Fatalf("journal has %d lines, want at least 2", len(lines))
	}
	return lines
}

// marshalRuns renders a result's runs deterministically for the
// byte-for-byte comparisons below.
func marshalRuns(t *testing.T, res *Result) []byte {
	t.Helper()
	type pointRuns struct {
		Point Point         `json:"point"`
		Runs  []metrics.Run `json:"runs"`
	}
	var all []pointRuns
	for _, p := range res.Points() {
		all = append(all, pointRuns{Point: p, Runs: res.Runs[p]})
	}
	b, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointResumeByteForByte is the acceptance scenario: a
// checkpointed sweep killed mid-run (cancelled after its first
// workload is journaled) and then restarted reproduces the
// uninterrupted run's results byte for byte on a Table 7 grid.
func TestCheckpointResumeByteForByte(t *testing.T) {
	pts := Grid([]int{64, 256}, 2)
	base := Request{Arch: synth.PDP11, Points: pts, Refs: 20000,
		Engine: MultiPass, Shards: 1, Parallelism: 1}

	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := marshalRuns(t, want)

	// Phase 1: same request, checkpointed, killed once the second
	// workload starts -- with Parallelism 1 the workloads run
	// sequentially, so the first is already journaled.
	path := tmpJournal(t)
	profiles := synth.Workloads(synth.PDP11)
	if len(profiles) < 2 {
		t.Skip("suite too small to interrupt")
	}
	second := profiles[1].Name
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := base
	req.Checkpoint = path
	req.Hooks = &Hooks{BeforeUnit: func(w string, _ int, _ []Point, _ int) {
		if w == second {
			cancel()
		}
	}}
	if _, err := RunContext(ctx, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep: err = %v, want context.Canceled", err)
	}

	// Phase 2: restart.  The journaled workload must be restored, the
	// rest re-simulated, and the merged result identical to the
	// uninterrupted run.
	req = base
	req.Checkpoint = path
	got, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Resumed < 1 {
		t.Errorf("Resumed = %d, want at least 1", got.Resumed)
	}
	if gotBytes := marshalRuns(t, got); string(gotBytes) != string(wantBytes) {
		t.Fatal("resumed sweep differs from the uninterrupted run")
	}
	if !reflect.DeepEqual(got.Summaries, want.Summaries) {
		t.Error("resumed summaries differ")
	}
	if want.TracePasses-got.TracePasses != got.Resumed {
		t.Errorf("restored workloads still cost passes: %d vs %d with %d resumed",
			got.TracePasses, want.TracePasses, got.Resumed)
	}
}

// TestCheckpointAcrossStrategies: the fingerprint deliberately excludes
// engine, shards, parallelism and the workload subset, so a journal
// written by a partial-suite multipass run seeds a full-suite sharded
// reference run -- and the restored entries are byte-identical.
func TestCheckpointAcrossStrategies(t *testing.T) {
	pts := Grid([]int{64}, 2)
	path := tmpJournal(t)
	profiles := synth.Workloads(synth.PDP11)
	if len(profiles) < 3 {
		t.Skip("suite too small for a subset run")
	}
	subset := []string{profiles[0].Name, profiles[2].Name}

	first, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 15000,
		Engine: MultiPass, Shards: 2, Workloads: subset, Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if first.Resumed != 0 {
		t.Fatalf("fresh run resumed %d workloads", first.Resumed)
	}

	full := Request{Arch: synth.PDP11, Points: pts, Refs: 15000,
		Engine: Reference, Shards: 0, Checkpoint: path}
	got, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	if got.Resumed != len(subset) {
		t.Errorf("Resumed = %d, want %d", got.Resumed, len(subset))
	}
	clean := Request{Arch: synth.PDP11, Points: pts, Refs: 15000, Engine: Reference}
	want, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if string(marshalRuns(t, got)) != string(marshalRuns(t, want)) {
		t.Error("cross-strategy resume differs from a clean run")
	}
}

// TestCheckpointFingerprintIsolation: entries only resume requests with
// matching architecture, trace length and point set.
func TestCheckpointFingerprintIsolation(t *testing.T) {
	pts := Grid([]int{64}, 2)
	path := tmpJournal(t)
	base := Request{Arch: synth.PDP11, Points: pts, Refs: 5000, Checkpoint: path,
		Engine: MultiPass}
	if _, err := Run(base); err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(*Request){
		"refs":   func(r *Request) { r.Refs = 6000 },
		"points": func(r *Request) { r.Points = r.Points[:len(r.Points)-1] },
		"arch":   func(r *Request) { r.Arch = synth.Z8000 },
	} {
		req := base
		mutate(&req)
		res, err := Run(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Resumed != 0 {
			t.Errorf("%s: resumed %d workloads from a foreign journal entry", name, res.Resumed)
		}
	}

	// Unchanged request: everything resumes.
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(synth.Workloads(synth.PDP11)); res.Resumed != want {
		t.Errorf("identical request resumed %d workloads, want %d", res.Resumed, want)
	}
	if res.TracePasses != 0 {
		t.Errorf("fully resumed sweep made %d trace passes", res.TracePasses)
	}
}

// TestCheckpointRefusesOverride: an Override cannot be fingerprinted,
// so checkpointing one is an error, not a silent wrong resume.
func TestCheckpointRefusesOverride(t *testing.T) {
	_, err := Run(Request{
		Arch: synth.PDP11, Points: Grid([]int{64}, 2), Refs: 1000,
		Checkpoint: tmpJournal(t),
		Override:   func(c *cache.Config) { c.CopyBack = true },
	})
	if err == nil {
		t.Fatal("checkpointed sweep accepted an Override")
	}
}

// TestCheckpointSkipsFailedWorkloads: a workload that failed is not
// journaled, so a resumed run retries it rather than trusting a
// partial result.
func TestCheckpointSkipsFailedWorkloads(t *testing.T) {
	pts := Grid([]int{64}, 2)
	path := tmpJournal(t)
	boom := &Hooks{BeforeUnit: func(w string, _ int, _ []Point, _ int) {
		if w == "ED" {
			panic("injected")
		}
	}}
	res, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 9000,
		Engine: MultiPass, Shards: 1, ContinueOnError: true,
		Checkpoint: path, Hooks: boom})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) == 0 {
		t.Fatal("injected panic produced no errors")
	}

	// The retry (no fault) must re-simulate ED and come out clean.
	got, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 9000,
		Engine: MultiPass, Shards: 1, Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Errors) != 0 {
		t.Fatalf("retry inherited errors: %v", got.Errors)
	}
	want, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 9000})
	if err != nil {
		t.Fatal(err)
	}
	if string(marshalRuns(t, got)) != string(marshalRuns(t, want)) {
		t.Error("retried run differs from a clean run")
	}
}
