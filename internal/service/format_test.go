// Format tests for the service's durable files: the version-1 files in
// testdata/v1, written before the seal, log and atomic-write protocols
// moved into internal/durable, must keep loading exactly as they did,
// and arbitrary bytes in a cache entry must never be served unverified.
package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"subcache/internal/durable"
	"subcache/internal/sweep"
	"subcache/internal/synth"
)

// copyTree copies the regular files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		return durable.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDurableFormatCompat loads the three version-1 files: a checkpoint
// journal that a resumed sweep restores byte-identically, a job journal
// of admitted, started and completed records that recovers the one
// unfinished job, and a cache entry that is served as a hit, never
// quarantined.
func TestDurableFormatCompat(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "v1"), dir)

	ck := filepath.Join(dir, "checkpoint.jsonl")
	j, err := sweep.OpenJournal(ck)
	if err != nil {
		t.Fatal(err)
	}
	if j.Skipped != 0 {
		t.Errorf("checkpoint journal: Skipped = %d, want 0", j.Skipped)
	}
	j.Close()
	profiles := synth.Workloads(synth.PDP11)
	req := sweep.Request{Arch: synth.PDP11, Points: sweep.Grid([]int{64}, 2), Refs: 4000,
		Engine: sweep.MultiPass, Shards: 1, Workloads: []string{profiles[0].Name, profiles[1].Name}}
	want, err := sweep.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	req.Checkpoint = ck
	got, err := sweep.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Resumed != 2 || !reflect.DeepEqual(got.Runs, want.Runs) {
		t.Errorf("checkpoint resume: Resumed = %d (want 2), runs equal = %v", got.Resumed, reflect.DeepEqual(got.Runs, want.Runs))
	}

	jobs := filepath.Join(dir, "jobs.jsonl")
	f, err := os.Open(jobs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ValidateJournal(f)
	f.Close()
	if err != nil || stats.Records != 5 {
		t.Errorf("job journal: %d records, err %v; want 5 valid", stats.Records, err)
	}
	jj, recovered, err := openJobJournal(jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	jj.Close()
	wantReq := &SweepRequest{Arch: "PDP-11", Nets: []int{64, 256}, Refs: 20000}
	if jj.Skipped != 0 || len(recovered) != 1 || recovered[0].fp != "a1b2c3d4e5f60718" ||
		recovered[0].tenant != "alice" || !reflect.DeepEqual(recovered[0].req, wantReq) {
		t.Errorf("job journal: Skipped = %d, recovered %+v; want only a1b2c3d4e5f60718 for alice", jj.Skipped, recovered)
	}

	st, err := openStore(filepath.Join(dir, "cache"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload, status := st.get("0f1e2d3c4b5a6978")
	if status != storeHit || !bytes.Contains(payload, []byte(`"miss":[0.1875,0.0625]`)) {
		t.Errorf("cache entry: status %d, payload %s; want a verified hit", status, payload)
	}
	if _, err := os.Stat(filepath.Join(dir, "cache", "corrupt")); !os.IsNotExist(err) {
		t.Errorf("cache entry quarantined (corrupt/ stat err %v)", err)
	}
}

// FuzzStoreEntry: whatever bytes sit in a cache entry, get serves only
// a payload whose envelope verifies -- schema version, owning
// fingerprint, SHA-256 -- and quarantines anything else, which is then
// never served.
func FuzzStoreEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		const fp = "0f1e2d3c4b5a6978"
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fp+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := openStore(dir, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		payload, status := st.get(fp)
		switch status {
		case storeHit:
			var env storeEnvelope
			if json.Unmarshal(data, &env) != nil || env.V != storeVersion || env.FP != fp ||
				env.Sum != durable.Sum(payload) || !bytes.Equal(env.Payload, payload) {
				t.Fatalf("served an unverified payload %q from %q", payload, data)
			}
		case storeCorrupt:
			if _, err := os.Stat(filepath.Join(dir, "corrupt", fp+".json")); err != nil {
				t.Fatalf("corrupt entry not quarantined: %v", err)
			}
			if p, again := st.get(fp); again != storeMiss || p != nil {
				t.Fatalf("quarantined entry still served: status %d", again)
			}
		default:
			t.Fatalf("get: status %d, want hit or corrupt", status)
		}
	})
}
