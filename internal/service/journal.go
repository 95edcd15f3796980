// Job journal: crash-safe persistence of the service's job table.
//
// Every job state transition -- admitted, started, completed, failed,
// canceled, evicted -- is one versioned, sealed record appended to the
// internal/durable log <dir>/jobs.jsonl; a record killed mid-write
// fails its seal on load and is skipped.  The admitted record carries
// the full wire request, so startup replay can reconstruct and re-admit
// every job that never reached a terminal state: the crash-recovery
// half of the service's "every admitted job reaches a terminal state
// exactly once" contract.
// Because the job id is the request fingerprint, a client polling a
// recovered id lands on the re-admitted job via the ordinary
// singleflight path, and the re-run resumes bit-identically from the
// job's per-fingerprint checkpoint journal.
//
// On open the journal is compacted: terminal jobs need no records (the
// verified result cache serves them), so the rewritten file holds one
// admitted record per non-terminal job, written atomically
// (durable.WriteFile) before appends resume.  That bounds the file
// across restarts without ever losing a live job.
package service

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"subcache/internal/durable"
	"subcache/internal/telemetry"
)

// JournalVersion is the job-journal record schema version, bumped when
// a field changes meaning; records with a different version are skipped
// on load and rejected by ValidateJournal.
const JournalVersion = 1

// Job-journal transition kinds.  ValidateJournal rejects anything else.
const (
	// KindAdmitted: the job passed admission control onto the queue;
	// the record carries the wire request for crash replay.
	KindAdmitted = "admitted"
	// KindStarted: a worker began simulating the job.
	KindStarted = "started"
	// KindCompleted: the job finished; its result is in the cache.
	KindCompleted = "completed"
	// KindFailed: the sweep returned a non-retryable (or
	// retry-exhausted) error, or hit its deadline.
	KindFailed = "failed"
	// KindCanceled: drain cut the job short before or during
	// simulation; the client was told, so replay does not re-admit it.
	KindCanceled = "canceled"
	// KindEvicted: the job's cached result was removed by TTL or
	// size-cap eviction; the job stays terminal, a resubmission
	// re-simulates (resuming from its checkpoint journal if present).
	KindEvicted = "evicted"
)

// journalKinds is the closed transition vocabulary.
var journalKinds = map[string]bool{
	KindAdmitted:  true,
	KindStarted:   true,
	KindCompleted: true,
	KindFailed:    true,
	KindCanceled:  true,
	KindEvicted:   true,
}

// JournalRecord is one job state transition, stored as one sealed
// line (durable.Seal).
type JournalRecord struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	FP   string `json:"fp"`
	// Tenant and Req ride the admitted record so replay can re-admit
	// with the original quota attribution and request.
	Tenant string        `json:"tenant,omitempty"`
	Req    *SweepRequest `json:"req,omitempty"`
	// Error carries the failure or cancellation text on terminal
	// records.
	Error string `json:"error,omitempty"`
	// UnixMS is the transition's wall-clock time.
	UnixMS int64 `json:"unix_ms"`
}

// decodeRecord unseals one journal line and checks its schema.
func decodeRecord(line []byte) (JournalRecord, error) {
	var r JournalRecord
	if err := durable.Unseal(line, &r); err != nil {
		return r, err
	}
	switch {
	case r.V != JournalVersion:
		return r, fmt.Errorf("version %d, want %d", r.V, JournalVersion)
	case !journalKinds[r.Kind]:
		return r, fmt.Errorf("unknown transition kind %q", r.Kind)
	case r.FP == "":
		return r, fmt.Errorf("%s record missing fp", r.Kind)
	case r.Kind == KindAdmitted && r.Req == nil:
		return r, fmt.Errorf("admitted record for %s missing request", r.FP)
	}
	return r, nil
}

// jobState is one fingerprint's replayed journal state: its last
// transition plus the admission context needed to re-admit it.
type jobState struct {
	fp     string
	kind   string
	tenant string
	req    *SweepRequest
}

// terminal reports whether the state needs no recovery.
func (s jobState) terminal() bool {
	return s.kind != KindAdmitted && s.kind != KindStarted
}

// jobJournal is the open job-table write-ahead journal.  Safe for
// concurrent Append calls; the service appends under its own mutex
// anyway, so transitions land in the order the job table changed.
type jobJournal struct {
	log *durable.Log
	rec telemetry.Recorder
	// Skipped counts lines rejected on load: torn tails, corruption,
	// foreign versions.  Informational.
	Skipped int
}

// openJobJournal loads, compacts and reopens the journal at path.  It
// returns the journal plus every non-terminal job in admission order,
// ready for re-admission.  The compacted file -- one fresh admitted
// record per recovered job -- is written atomically before appends
// resume, so a crash during open leaves either the old journal or the
// compacted one, never a torn mix.
func openJobJournal(path string, rec telemetry.Recorder) (*jobJournal, []jobState, error) {
	j := &jobJournal{rec: telemetry.OrNop(rec)}
	states := make(map[string]jobState)
	var order []string // first-admission order of live fingerprints
	old, err := durable.OpenLog(path, func(line []byte) {
		r, err := decodeRecord(line)
		if err != nil {
			j.Skipped++
			return
		}
		prev, seen := states[r.FP]
		next := jobState{fp: r.FP, kind: r.Kind, tenant: r.Tenant, req: r.Req}
		if r.Kind != KindAdmitted && seen {
			// Non-admission transitions keep the admission context.
			next.tenant, next.req = prev.tenant, prev.req
		}
		states[r.FP] = next
		if !seen {
			order = append(order, r.FP)
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("service: job journal: %w", err)
	}
	old.Close()

	var recovered []jobState
	var compacted bytes.Buffer
	for _, fp := range order {
		st := states[fp]
		if st.terminal() || st.req == nil {
			continue
		}
		b, err := durable.Seal(JournalRecord{
			V: JournalVersion, Kind: KindAdmitted, FP: fp,
			Tenant: st.tenant, Req: st.req, UnixMS: time.Now().UnixMilli(),
		})
		if err != nil {
			return nil, nil, fmt.Errorf("service: job journal: %w", err)
		}
		compacted.Write(append(b, '\n'))
		recovered = append(recovered, st)
	}
	if err := durable.WriteFile(path, compacted.Bytes(), 0o644); err != nil {
		return nil, nil, fmt.Errorf("service: job journal: %w", err)
	}
	if j.log, err = durable.OpenLog(path, nil); err != nil {
		return nil, nil, fmt.Errorf("service: job journal: %w", err)
	}
	return j, recovered, nil
}

// append writes one fsynced transition record: fully journaled, or (on
// a crash mid-write) fully rejected by its seal on the next load.
func (j *jobJournal) append(r JournalRecord) error {
	r.V = JournalVersion
	r.UnixMS = time.Now().UnixMilli()
	b, err := durable.Seal(r)
	if err != nil {
		return fmt.Errorf("service: job journal: %w", err)
	}
	if _, err := j.log.Append(b); err != nil {
		return fmt.Errorf("service: job journal: %w", err)
	}
	j.rec.Add(telemetry.JobJournalRecords, 1)
	return nil
}

// Close releases the journal file.
func (j *jobJournal) Close() error { return j.log.Close() }

// JournalStats summarises a validated job journal.
type JournalStats struct {
	// Records counts valid records; ByKind breaks them down.
	Records int
	ByKind  map[string]int
}

// ValidateJournal strictly validates a job-journal stream, the
// consumer-side schema contract cmd/eventcheck enforces in CI: every
// line must be a version-JournalVersion record with a known transition
// kind, a verifying SHA-256 checksum, and the kind's required fields.
// Unlike the loader -- which tolerates torn tails because a crashed
// writer is its normal input -- validation rejects them: a compacted or
// cleanly shut down journal has no excuse for an invalid line.
func ValidateJournal(r io.Reader) (JournalStats, error) {
	st := JournalStats{ByKind: make(map[string]int)}
	err := durable.ReadLines(r, func(n int, line []byte) error {
		rec, err := decodeRecord(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
		st.Records++
		st.ByKind[rec.Kind]++
		return nil
	})
	return st, err
}
