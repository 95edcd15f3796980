// Command benchsweep times the sweep engines on the Table 7 grid --
// every architecture, the paper's net sizes, the full block/sub-block
// matrix -- and records wall-clock seconds, trace-replay passes, the
// engine speedup and the shard-scaling curve of the chunk-broadcast
// executor in a JSON file, so the sweep harness's perf trajectory is
// tracked in the repository.
//
// Usage:
//
//	benchsweep [-refs N] [-nets LIST] [-shards LIST] [-verify] [-out FILE]
//	           [-pprof ADDR] [-cpuprofile FILE] [-memprofile FILE]
//	           [-events FILE] [-manifest FILE] [-progress]
//
// The engine comparison times the per-point Reference engine (one cache
// per grid point) against the single-pass MultiPass and StackDist
// engines, all three on the one chunk-broadcast executor at the auto
// shard count,
// recording per-engine ns_per_ref and passes_per_workload so the
// one-pass stack-distance kernel's win over the family kernel is
// tracked alongside the headline pass reduction.  The shard curve then
// times the MultiPass sweep at each shard count in -shards (default
// "1,2,4,...,NumCPU", always at least 1,2,4 so the curve is never a
// single point) with Parallelism pinned to the shard count, so point s
// of the curve uses exactly s cores and the curve isolates
// intra-workload scaling.  An explicit -shards list is honored exactly
// as given; when it (or the padded default on a small machine) asks
// for more shards than CPUs, those points run oversubscribed and the
// record carries shard_curve_truncated: true so downstream consumers
// know the tail of the curve measured contention, not scaling.
// SIGINT/SIGTERM cancel the run at the next chunk boundary: the event
// stream is flushed and closed, RUN.json records interrupted: true,
// and benchsweep exits non-zero.  -verify additionally cross-checks that both
// single-pass engines at shards=1 and NumCPU reproduce the Reference
// engine, the per-point oracle, bit for bit -- with StackDist making
// exactly one trace pass per workload -- exiting non-zero on any
// mismatch (the CI smoke step runs this).
//
// Alongside wall-clock figures the record carries two kernel-level
// numbers for the MultiPass engine: ns_per_ref (engine seconds over the
// total word references replayed across every workload) and
// allocs_per_ref (heap objects allocated during the timed engine run
// over the same denominator -- ~0 now that the access path is
// allocation-free).  The shared observability bundle
// (internal/telemetry) provides the rest: -cpuprofile/-memprofile write
// pprof profiles of the run for drilling into regressions, -pprof
// serves live profiles over HTTP, -events streams structured telemetry
// events (JSONL), -manifest writes a RUN.json run manifest, and
// -progress prints a live progress line.
//
// The committed BENCH_sweep.json is regenerated with the defaults:
//
//	go run ./cmd/benchsweep
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"subcache/internal/durable"
	"subcache/internal/kernelbench"
	"subcache/internal/sweep"
	"subcache/internal/synth"
	"subcache/internal/telemetry"
	"subcache/internal/trace"
)

type engineResult struct {
	Engine string `json:"engine"`
	// Seconds is the median of the -repeat timed runs; SecondsMin and
	// SecondsMax bound the samples so a reader can judge the noise floor
	// behind any before/after claim.
	Seconds     float64 `json:"seconds"`
	SecondsMin  float64 `json:"seconds_min"`
	SecondsMax  float64 `json:"seconds_max"`
	TracePasses int     `json:"trace_passes"`
	// PassesPerWorkload is TracePasses over the total workload count:
	// the grid size for Reference, exactly 1 for the single-pass
	// engines.
	PassesPerWorkload float64 `json:"passes_per_workload"`
	// NsPerRef is this engine's wall-clock nanoseconds per word
	// reference of the full-grid sweep (same denominator for every
	// engine, so the column is directly comparable), from the median
	// run.
	NsPerRef float64 `json:"ns_per_ref"`
	// AllocsPerRef is the median heap-object count allocated during one
	// timed run of this engine, per word reference.
	AllocsPerRef float64 `json:"allocs_per_ref"`
	// KernelHitNs and KernelMissNs microbenchmark the engine kernel
	// directly (no sweep harness): ns per access on a steady-state
	// resident block and on a conflict stream that evicts on every
	// reference.  See internal/kernelbench for the exact geometry and streams.
	KernelHitNs  float64 `json:"kernel_hit_ns"`
	KernelMissNs float64 `json:"kernel_miss_ns"`
}

type shardResult struct {
	Shards  int     `json:"shards"`
	Seconds float64 `json:"seconds"`
	// SpeedupVs1 is wall-clock at shards=1 divided by wall-clock here:
	// the scaling curve of the chunk-broadcast executor.
	SpeedupVs1 float64 `json:"speedup_vs_shards_1"`
}

type record struct {
	Bench         string         `json:"bench"`
	Refs          int            `json:"refs_per_workload"`
	Nets          []int          `json:"nets"`
	Archs         []string       `json:"archs"`
	Points        int            `json:"grid_points"`
	Workloads     int            `json:"workloads"`
	NumCPU        int            `json:"num_cpu"`
	Engines       []engineResult `json:"engines"`
	Speedup       float64        `json:"wall_clock_speedup"`
	PassReduction float64        `json:"pass_reduction"`
	// StackSpeedup is MultiPass wall-clock over StackDist wall-clock on
	// the same grid: the one-pass stack-distance engine's measured win
	// over the already-single-pass family engine.
	StackSpeedup float64       `json:"stackdist_speedup_vs_multipass"`
	ShardCurve   []shardResult `json:"shard_curve"`
	// ShardSpeedup is the best point of the curve: wall-clock at
	// shards=1 over wall-clock at the largest measured shard count.
	ShardSpeedup float64 `json:"shard_speedup"`
	// ShardCurveTruncated is set when the curve asks for more shards
	// than the machine has CPUs: those points ran oversubscribed, so
	// the tail of the curve measures contention, not scaling.
	ShardCurveTruncated bool `json:"shard_curve_truncated"`
	// WordRefs is the total word references replayed per full-grid
	// sweep: the denominator of the two per-reference kernel figures.
	WordRefs uint64 `json:"word_refs_total"`
	// Repeat is how many times each engine's sweep was timed; Seconds,
	// NsPerRef and AllocsPerRef report medians over these runs.
	Repeat int `json:"repeat"`
	// CalNs is the core-frequency calibration (kernelbench.Calibrate)
	// taken alongside the timed runs.  Shared containers swing 2x in
	// effective clock between sessions; dividing two records' cal_ns
	// separates an engine change from the machine simply running at a
	// different speed (the same trick cmd/benchcheck gates on).
	CalNs float64 `json:"cal_ns"`
	// NsPerRef is a documented alias of the MultiPass entry's ns_per_ref
	// in the engines array, kept at the top level for existing
	// consumers: MultiPass wall-clock nanoseconds per word reference
	// (each reference drives every grid configuration that shares its
	// architecture's trace pass).
	NsPerRef float64 `json:"ns_per_ref"`
	// AllocsPerRef likewise aliases the MultiPass entry's
	// allocs_per_ref: heap objects allocated during the timed MultiPass
	// run per word reference.
	AllocsPerRef float64 `json:"allocs_per_ref"`
}

func main() {
	var (
		refs       = flag.Int("refs", 100000, "references per workload trace")
		nets       = flag.String("nets", "64,256,1024", "comma-separated net sizes")
		shards     = flag.String("shards", "", "comma-separated shard counts for the scaling curve (default 1,2,4,...,NumCPU)")
		verify     = flag.Bool("verify", false, "cross-check sharded results for bit-identity and exit non-zero on mismatch")
		checkpoint = flag.String("checkpoint", "", "journal `file` for the checkpoint/resume round-trip proof: run half of each suite checkpointed, resume the full suite from the journal, and exit non-zero unless the merged results are identical to an uninterrupted sweep")
		repeat     = flag.Int("repeat", 3, "timed runs per engine; the record reports the median with min/max bounds")
		out        = flag.String("out", "BENCH_sweep.json", "output file")
	)
	tf := telemetry.RegisterFlags(flag.CommandLine)
	tf.RegisterSweepFlags(flag.CommandLine)
	flag.Parse()

	netSizes, err := parseInts(*nets)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsweep: bad -nets: %v\n", err)
		os.Exit(2)
	}
	if *repeat < 1 {
		fmt.Fprintln(os.Stderr, "benchsweep: -repeat must be at least 1")
		os.Exit(2)
	}
	// An explicit -shards list is honored exactly as given, no NumCPU
	// clamp; the default curve is padded to at least three points so a
	// small machine never silently produces a degenerate one-entry
	// curve.
	curve := defaultCurve(runtime.NumCPU())
	if *shards != "" {
		if curve, err = parseInts(*shards); err != nil {
			fmt.Fprintf(os.Stderr, "benchsweep: bad -shards: %v\n", err)
			os.Exit(2)
		}
	}
	curveTruncated := false
	for _, s := range curve {
		if s > runtime.NumCPU() {
			curveTruncated = true
			fmt.Fprintf(os.Stderr, "benchsweep: note: shards=%d exceeds the %d available CPUs; that point of the curve runs oversubscribed (shard_curve_truncated: true)\n",
				s, runtime.NumCPU())
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sess, err := tf.Start("benchsweep", telemetry.Fingerprint(
		"bench=sweep_table7", fmt.Sprint("refs=", *refs),
		fmt.Sprint("nets=", netSizes), fmt.Sprint("curve=", curve)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep:", err)
		os.Exit(2)
	}
	sess.Manifest.Engine = sweep.MultiPass.String()
	sess.Manifest.Shards = runtime.NumCPU()
	// die finalises observability (profiles, manifest, event sink)
	// before a failure exit, so even a failed bench leaves evidence.
	// A signal-cancelled run is recorded as interrupted in RUN.json and
	// stamped on the stream's terminal run-end event.
	die := func(v ...any) {
		fmt.Fprintln(os.Stderr, v...)
		if ctx.Err() != nil {
			sess.Manifest.Interrupted = true
		}
		sess.Close()
		os.Exit(1)
	}

	rec := record{
		Bench:               "sweep_table7",
		Refs:                *refs,
		Nets:                netSizes,
		NumCPU:              runtime.NumCPU(),
		ShardCurveTruncated: curveTruncated,
	}
	for _, a := range synth.AllArchs() {
		rec.Archs = append(rec.Archs, a.String())
		rec.Points += len(sweep.Grid(netSizes, a.WordSize()))
		rec.Workloads += len(synth.Workloads(a))
	}

	if *verify {
		if err := verifyShardIdentity(ctx, netSizes, *refs); err != nil {
			die("benchsweep: verify:", err)
		}
		fmt.Printf("verify ok: multipass and stackdist at shards=1, %d and 32 agree with the reference engine on every counter\n", runtime.NumCPU())
	}

	if *checkpoint != "" {
		// Like -out and the telemetry files, the journal may name a
		// directory that does not exist yet.
		if err := os.MkdirAll(filepath.Dir(*checkpoint), 0o755); err != nil {
			die("benchsweep: checkpoint:", err)
		}
		if err := verifyCheckpointResume(ctx, netSizes, *refs, *checkpoint); err != nil {
			die("benchsweep: checkpoint:", err)
		}
		fmt.Println("checkpoint ok: interrupted-then-resumed sweeps reproduce the uninterrupted results exactly, across engines")
	}

	// Each engine's full-grid sweep is timed -repeat times, rounds
	// interleaved across engines so slow machine-wide drift (thermal,
	// noisy neighbours) biases every engine alike rather than whichever
	// ran last.  Medians feed every derived figure; min/max are recorded
	// so the noise floor behind a speedup claim is visible.
	engines := []sweep.Engine{sweep.Reference, sweep.MultiPass, sweep.StackDist}
	secSamples := make([][]float64, len(engines))
	allocSamples := make([][]float64, len(engines))
	enginePasses := make([]int, len(engines))
	for r := 0; r < *repeat; r++ {
		for i, eng := range engines {
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			secs, passes, err := timeSweep(ctx, netSizes, *refs, sweep.Request{Engine: eng, Recorder: sess.Recorder()})
			if err != nil {
				die("benchsweep:", err)
			}
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			secSamples[i] = append(secSamples[i], secs)
			allocSamples[i] = append(allocSamples[i], float64(after.Mallocs-before.Mallocs))
			enginePasses[i] = passes
		}
	}
	var mpSecs, mpAllocs float64
	var rawSecs []float64
	for i, eng := range engines {
		med, lo, hi := median(secSamples[i])
		allocs, _, _ := median(allocSamples[i])
		if eng == sweep.MultiPass {
			mpSecs, mpAllocs = med, allocs
		}
		rawSecs = append(rawSecs, med)
		hitNs, missNs, err := kernelbench.Bench(eng)
		if err != nil {
			die("benchsweep:", err)
		}
		er := engineResult{
			Engine:       eng.String(),
			Seconds:      round3(med),
			SecondsMin:   round3(lo),
			SecondsMax:   round3(hi),
			TracePasses:  enginePasses[i],
			KernelHitNs:  round3(hitNs),
			KernelMissNs: round3(missNs),
		}
		rec.Engines = append(rec.Engines, er)
		fmt.Printf("%-10s %8.3fs median of %d (%.3f..%.3f)  %5d passes  kernel hit %.1fns miss %.1fns\n",
			er.Engine, er.Seconds, *repeat, er.SecondsMin, er.SecondsMax, er.TracePasses, er.KernelHitNs, er.KernelMissNs)
	}
	ref, mp, sd := rec.Engines[0], rec.Engines[1], rec.Engines[2]
	if mp.Seconds > 0 {
		rec.Speedup = round3(ref.Seconds / mp.Seconds)
	}
	if mp.TracePasses > 0 {
		rec.PassReduction = round3(float64(ref.TracePasses) / float64(mp.TracePasses))
	}
	if sd.Seconds > 0 {
		rec.StackSpeedup = round3(mp.Seconds / sd.Seconds)
	}
	fmt.Printf("engine speedup %.2fx wall clock, %.0fx fewer trace passes; stackdist %.2fx vs multipass\n",
		rec.Speedup, rec.PassReduction, rec.StackSpeedup)

	wordRefs, err := countWordRefs(*refs)
	if err != nil {
		die("benchsweep: counting word refs:", err)
	}
	rec.WordRefs = wordRefs
	rec.Repeat = *repeat
	rec.CalNs = round3(kernelbench.Calibrate())
	for i := range rec.Engines {
		if wordRefs > 0 {
			rec.Engines[i].NsPerRef = round3(rawSecs[i] * 1e9 / float64(wordRefs))
			allocs, _, _ := median(allocSamples[i])
			rec.Engines[i].AllocsPerRef = round3(allocs / float64(wordRefs))
		}
		if rec.Workloads > 0 {
			rec.Engines[i].PassesPerWorkload = round3(float64(rec.Engines[i].TracePasses) / float64(rec.Workloads))
		}
	}
	if wordRefs > 0 {
		rec.NsPerRef = round3(mpSecs * 1e9 / float64(wordRefs))
		rec.AllocsPerRef = round3(mpAllocs / float64(wordRefs))
	}
	fmt.Printf("multipass kernel: %.1f ns/ref, %.3f allocs/ref over %d word refs; stackdist %.1f ns/ref\n",
		rec.NsPerRef, rec.AllocsPerRef, rec.WordRefs, rec.Engines[2].NsPerRef)

	var base float64
	for _, s := range curve {
		secs, _, err := timeSweep(ctx, netSizes, *refs, sweep.Request{
			Engine: sweep.MultiPass, Shards: s, Parallelism: s,
			Recorder: sess.Recorder(),
		})
		if err != nil {
			die("benchsweep:", err)
		}
		sr := shardResult{Shards: s, Seconds: round3(secs)}
		if s == 1 {
			base = secs
		}
		if base > 0 && secs > 0 {
			sr.SpeedupVs1 = round3(base / secs)
		}
		rec.ShardCurve = append(rec.ShardCurve, sr)
		fmt.Printf("shards=%-3d %8.3fs  %.2fx vs shards=1\n", sr.Shards, sr.Seconds, sr.SpeedupVs1)
	}
	if n := len(rec.ShardCurve); n > 0 {
		rec.ShardSpeedup = rec.ShardCurve[n-1].SpeedupVs1
	}

	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		die("benchsweep:", err)
	}
	// Atomic, like WriteTraceFile: an interrupted bench never leaves a
	// torn BENCH_sweep.json behind for CI to diff against.
	if err := durable.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		die("benchsweep:", err)
	}

	if err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep: telemetry:", err)
		os.Exit(2)
	}
}

// countWordRefs streams every workload's word-split trace (untimed) and
// counts the references one MultiPass full-grid sweep replays: the
// denominator for ns_per_ref and allocs_per_ref.
func countWordRefs(refs int) (uint64, error) {
	var total uint64
	buf := make([]trace.Ref, trace.ChunkRefs)
	for _, a := range synth.AllArchs() {
		for _, prof := range synth.Workloads(a) {
			src, err := synth.NewWordSource(prof, refs, a.WordSize())
			if err != nil {
				return 0, fmt.Errorf("%s/%s: %w", a, prof.Name, err)
			}
			for {
				n, err := trace.ReadChunk(src, buf)
				total += uint64(n)
				if err == io.EOF {
					break
				}
				if err != nil {
					return 0, fmt.Errorf("%s/%s: %w", a, prof.Name, err)
				}
			}
		}
	}
	return total, nil
}

// timeSweep runs the full Table 7 grid across every architecture with
// the given engine settings, returning wall-clock seconds and summed
// trace passes.
func timeSweep(ctx context.Context, netSizes []int, refs int, base sweep.Request) (float64, int, error) {
	start := time.Now()
	passes := 0
	for _, a := range synth.AllArchs() {
		req := base
		req.Arch = a
		req.Points = sweep.Grid(netSizes, a.WordSize())
		req.Refs = refs
		res, err := sweep.RunContext(ctx, req)
		if err != nil {
			return 0, 0, fmt.Errorf("%s/%s: %w", req.Engine, a, err)
		}
		passes += res.TracePasses
	}
	return time.Since(start).Seconds(), passes, nil
}

// verifyShardIdentity proves the single-pass engines exact on the full
// grid: for every architecture, the Reference engine's per-point
// results (the oracle: one cache.Cache per point) must be matched
// bit-for-bit by MultiPass and StackDist at shards=1, NumCPU and 32 --
// every run and summary identical, and the StackDist sweeps making
// exactly one trace pass per workload.  At 32 shards families split
// and stack groups fan out into set partitions, so the executor's merge
// of a group's partitions is checked on the full grid.
func verifyShardIdentity(ctx context.Context, netSizes []int, refs int) error {
	for _, a := range synth.AllArchs() {
		base := sweep.Request{
			Arch: a, Points: sweep.Grid(netSizes, a.WordSize()),
			Refs: refs, Engine: sweep.Reference,
		}
		wantRes, err := sweep.RunContext(ctx, base)
		if err != nil {
			return fmt.Errorf("%s baseline: %w", a, err)
		}
		for _, eng := range []sweep.Engine{sweep.MultiPass, sweep.StackDist} {
			for _, s := range []int{1, runtime.NumCPU(), 32} {
				req := base
				req.Engine = eng
				req.Shards = s
				res, err := sweep.RunContext(ctx, req)
				if err != nil {
					return fmt.Errorf("%s %s shards=%d: %w", a, eng, s, err)
				}
				if !reflect.DeepEqual(res.Runs, wantRes.Runs) ||
					!reflect.DeepEqual(res.Summaries, wantRes.Summaries) {
					return fmt.Errorf("%s: %s shards=%d results differ from the reference engine", a, eng, s)
				}
				if eng == sweep.StackDist {
					if workloads := len(synth.Workloads(a)); res.TracePasses != workloads {
						return fmt.Errorf("%s: stackdist shards=%d made %d trace passes, want %d (one per workload)",
							a, s, res.TracePasses, workloads)
					}
				}
			}
		}
	}
	return nil
}

// verifyCheckpointResume proves checkpoint/resume exact on the full
// grid: for every architecture, a checkpointed sweep of half the suite
// followed by a full-suite resume (under a different engine and shard
// strategy -- the journal is keyed only by what determines results)
// must reproduce an uninterrupted sweep's runs and summaries exactly.
func verifyCheckpointResume(ctx context.Context, netSizes []int, refs int, path string) error {
	for _, a := range synth.AllArchs() {
		base := sweep.Request{
			Arch: a, Points: sweep.Grid(netSizes, a.WordSize()),
			Refs: refs, Engine: sweep.MultiPass,
		}
		want, err := sweep.RunContext(ctx, base)
		if err != nil {
			return fmt.Errorf("%s baseline: %w", a, err)
		}

		suite := synth.Workloads(a)
		half := len(suite) / 2
		if half == 0 {
			half = len(suite)
		}
		partial := base
		partial.Checkpoint = path
		for _, p := range suite[:half] {
			partial.Workloads = append(partial.Workloads, p.Name)
		}
		if _, err := sweep.RunContext(ctx, partial); err != nil {
			return fmt.Errorf("%s interrupted phase: %w", a, err)
		}

		resumed := base
		resumed.Checkpoint = path
		resumed.Engine = sweep.Reference
		resumed.Shards = runtime.NumCPU()
		res, err := sweep.RunContext(ctx, resumed)
		if err != nil {
			return fmt.Errorf("%s resume: %w", a, err)
		}
		if res.Resumed != half {
			return fmt.Errorf("%s: resumed %d workloads from the journal, want %d", a, res.Resumed, half)
		}
		if !reflect.DeepEqual(res.Runs, want.Runs) ||
			!reflect.DeepEqual(res.Summaries, want.Summaries) {
			return fmt.Errorf("%s: resumed results differ from the uninterrupted sweep", a)
		}
	}
	return nil
}

// defaultCurve is 1, 2, 4, ... up to and including NumCPU, padded with
// the next powers of two until it has at least three points: a one- or
// two-CPU machine measures 1,2,4 (oversubscribed, and flagged so via
// shard_curve_truncated) rather than silently producing a degenerate
// single-entry curve.
func defaultCurve(ncpu int) []int {
	var out []int
	for s := 1; s < ncpu; s *= 2 {
		out = append(out, s)
	}
	out = append(out, ncpu)
	for len(out) < 3 {
		out = append(out, out[len(out)-1]*2)
	}
	return out
}

func parseInts(list string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad value %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func round3(x float64) float64 {
	return float64(int64(x*1000+0.5)) / 1000
}

// median returns the median, minimum and maximum of the samples.  An
// even sample count averages the two middle values.
func median(samples []float64) (med, lo, hi float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	med = s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return med, s[0], s[n-1]
}
