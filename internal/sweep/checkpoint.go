// Checkpoint journal: crash-safe persistence of completed sweep work.
//
// A journal is an internal/durable log of sealed entries, one per
// completed (request fingerprint, workload) pair, each carrying every
// point's metrics.Run.  A sweep with Request.Checkpoint set records
// each workload the moment it completes, and a restarted sweep restores
// matching entries instead of re-simulating them.  Because every engine
// and shard count produces bit-identical runs, entries are keyed only
// by what determines results -- architecture, trace length, and the
// point set -- so a resume may freely change engine, shard count or
// parallelism, and a partial-suite run can seed a full-suite one.  A
// line that fails to verify (torn, corrupted, foreign version) is
// skipped and its workload re-simulated, never half-trusted; entries
// from other requests sharing the file are ignored, so one journal
// file can serve a whole experiment series.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"subcache/internal/durable"
	"subcache/internal/metrics"
	"subcache/internal/telemetry"
)

// journalVersion is bumped when the entry layout changes; entries with
// a different version are skipped on load.
const journalVersion = 1

// journalRun pairs one grid point with its completed run.
type journalRun struct {
	Point Point       `json:"point"`
	Run   metrics.Run `json:"run"`
}

// journalEntry is one completed workload within one fingerprinted
// request, stored as one durable.Seal line.
type journalEntry struct {
	V        int          `json:"v"`
	FP       string       `json:"fp"`
	Workload string       `json:"workload"`
	Runs     []journalRun `json:"runs"`
}

// Journal is an open checkpoint file.  Safe for concurrent Record
// calls from sweep workers.
type Journal struct {
	mu   sync.Mutex
	log  *durable.Log
	done map[string]journalEntry // "fp\x00workload" -> last valid entry
	rec  telemetry.Recorder      // set by RunContext; never nil
	// Skipped counts lines that failed to parse or verify on load:
	// torn tails, corruption, foreign versions.  Informational.
	Skipped int
}

func journalKey(fp, workload string) string { return fp + "\x00" + workload }

// OpenJournal opens (creating if needed) a checkpoint journal and
// loads every hash-verified entry.  Invalid lines are counted in
// Skipped and otherwise ignored.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{done: make(map[string]journalEntry), rec: telemetry.Nop}
	log, err := durable.OpenLog(path, func(line []byte) {
		var e journalEntry
		if durable.Unseal(line, &e) != nil || e.V != journalVersion {
			j.Skipped++
			return
		}
		j.done[journalKey(e.FP, e.Workload)] = e
	})
	if err != nil {
		return nil, fmt.Errorf("sweep: checkpoint: %w", err)
	}
	j.log = log
	return j, nil
}

// Lookup returns the journaled runs for one workload under the given
// request fingerprint, or ok=false if none were recorded.
func (j *Journal) Lookup(fp, workload string) (map[Point]metrics.Run, bool) {
	j.mu.Lock()
	e, ok := j.done[journalKey(fp, workload)]
	j.mu.Unlock()
	if !ok {
		return nil, false
	}
	runs := make(map[Point]metrics.Run, len(e.Runs))
	for _, jr := range e.Runs {
		runs[jr.Point] = jr.Run
	}
	return runs, true
}

// Record appends one completed workload's runs as a single fsynced
// line, so the entry is either fully journaled or (on a crash
// mid-write) fully rejected by the checksum on the next load.
func (j *Journal) Record(fp, workload string, points []Point, runs map[Point]metrics.Run) error {
	e := journalEntry{V: journalVersion, FP: fp, Workload: workload}
	for _, p := range points {
		r, ok := runs[p]
		if !ok {
			return fmt.Errorf("sweep: checkpoint: workload %s missing point %v", workload, p)
		}
		e.Runs = append(e.Runs, journalRun{Point: p, Run: r})
	}
	b, err := durable.Seal(e)
	if err != nil {
		return fmt.Errorf("sweep: checkpoint: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	t0 := time.Now()
	fsync, err := j.log.Append(b)
	if err != nil {
		return fmt.Errorf("sweep: checkpoint: %w", err)
	}
	if j.rec.Enabled() {
		j.rec.Observe(telemetry.StageCheckpoint, time.Since(t0))
		j.rec.Add(telemetry.CheckpointFsyncNanos, uint64(fsync))
	}
	j.done[journalKey(fp, workload)] = e
	return nil
}

// Close releases the journal file.
func (j *Journal) Close() error { return j.log.Close() }

// RequestFingerprint exposes a request's checkpoint fingerprint: the
// short stable hash of exactly what determines its results (see
// requestFingerprint).  The sweep service keys its result cache and
// singleflight dedup on it, so two requests that would simulate the
// same thing -- whatever their engine, shard count or parallelism --
// share one simulation and one cache entry.
func RequestFingerprint(req Request) (string, error) {
	return requestFingerprint(req)
}

// requestFingerprint hashes exactly what determines a sweep's results
// per workload: the architecture (and its word size), the trace
// length, and the requested point set.  Engine, shard count,
// parallelism and the workload subset are deliberately excluded --
// results are bit-identical across all of them, so a journal written
// under one execution strategy resumes under any other.  Override is
// an arbitrary function and cannot be fingerprinted, so checkpointing
// refuses it.
func requestFingerprint(req Request) (string, error) {
	if req.Override != nil {
		return "", fmt.Errorf("sweep: checkpointing a sweep with a config Override is not supported (the override cannot be fingerprinted)")
	}
	h := sha256.New()
	fmt.Fprintf(h, "v%d arch=%s word=%d refs=%d\n", journalVersion, req.Arch, req.Arch.WordSize(), req.Refs)
	pts := append([]Point(nil), req.Points...)
	sortPoints(pts)
	for _, p := range pts {
		fmt.Fprintln(h, p.String())
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// ckState carries an open journal plus the request context it verifies
// entries against.
type ckState struct {
	j      *Journal
	fp     string
	points []Point // request points, for Record's canonical order
}

func (c *ckState) lookup(workload string) (map[Point]metrics.Run, bool) {
	if c == nil {
		return nil, false
	}
	return c.j.Lookup(c.fp, workload)
}

func (c *ckState) record(workload string, runs map[Point]metrics.Run) error {
	if c == nil {
		return nil
	}
	return c.j.Record(c.fp, workload, c.points, runs)
}
