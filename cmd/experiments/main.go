// Command experiments regenerates every table and figure of Hill &
// Smith (ISCA 1984) from the synthetic workload suites, writing each
// artifact to the results directory as aligned text and CSV.
//
// Usage:
//
//	experiments [-refs N] [-out DIR] [-run LIST] [-engine ENGINE] [-shards N] [-list] [-ascii]
//	            [-pprof ADDR] [-cpuprofile FILE] [-memprofile FILE]
//	            [-events FILE] [-manifest FILE] [-progress]
//
// where LIST is a comma-separated subset of the experiment ids printed
// by -list (default "all").  The paper's runs use one million references
// per trace (-refs 1000000, the default).  ENGINE selects the sweep
// simulation engine: "multipass" (default) evaluates each workload's
// whole configuration family in a single trace pass, "stackdist"
// collapses further to one stack-distance recency list per block size
// (still one pass, fewest simulated lanes), "reference" replays the
// trace once per configuration; all three produce byte-identical
// artifacts (a regression test enforces it).  -shards
// sets the intra-workload shard count of the chunk-broadcast executor
// every engine runs on (0, the default, picks a machine-appropriate
// value; 1 is the one-pass case; the shard count never changes the
// artifacts, only the wall clock).
//
// The shared observability bundle (internal/telemetry) adds profiling
// (-pprof, -cpuprofile, -memprofile), a structured JSONL event stream
// (-events), a RUN.json run manifest (-manifest) and a live progress
// line (-progress).  All are off by default and none changes the
// artifacts; see docs/OBSERVABILITY.md.
//
// SIGINT/SIGTERM interrupt cleanly: in-flight sweeps stop at their
// next chunk boundary, the event stream is flushed and closed (ending
// on the terminal run-end event), RUN.json records interrupted: true,
// the checkpoint journal keeps every completed workload for a resumed
// rerun, and the process exits non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"subcache/internal/sweep"
	"subcache/internal/telemetry"
)

func main() {
	var (
		refs   = flag.Int("refs", 1000000, "references per workload trace")
		out    = flag.String("out", "results", "output directory")
		run    = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		engine = flag.String("engine", "multipass", "sweep engine: multipass, stackdist or reference")
		shards = flag.Int("shards", 0, fmt.Sprintf("shard workers per workload (0 = auto, otherwise 1 to %d)", sweep.MaxShards))
		ckpt   = flag.String("checkpoint", "", "journal `file`: record each finished workload sweep and, on a rerun, resume past the recorded ones (ablations with config overrides always re-run)")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		ascii  = flag.Bool("ascii", false, "also print ASCII renderings of figures")
	)
	tf := telemetry.RegisterFlags(flag.CommandLine)
	tf.RegisterSweepFlags(flag.CommandLine)
	flag.Parse()

	eng, err := sweep.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if *shards < 0 || *shards > sweep.MaxShards {
		fmt.Fprintf(os.Stderr, "experiments: -shards %d out of range [0, %d]\n", *shards, sweep.MaxShards)
		os.Exit(2)
	}

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-12s %s\n", e.id, e.title)
		}
		return
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	sess, err := tf.Start("experiments", telemetry.Fingerprint(
		fmt.Sprint("refs=", *refs), fmt.Sprint("run=", *run),
		fmt.Sprint("engine=", eng)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	sess.Manifest.Engine = eng.String()
	sess.Manifest.Shards = *shards

	want := map[string]bool{}
	all := *run == "all"
	for _, id := range strings.Split(*run, ",") {
		want[strings.TrimSpace(id)] = true
	}

	// SIGINT/SIGTERM cancel the shared context: every sweep stops at
	// its next chunk boundary, the event sink is flushed and closed on
	// the way out, RUN.json records interrupted: true, and the process
	// exits non-zero.  The checkpoint journal already ends on a clean
	// fsynced record (each workload is journalled as it finishes), so a
	// rerun resumes past the completed sweeps.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ctx := newRunCtx(sigCtx, *refs, eng, *shards, *ckpt)
	ctx.recorder = sess.Recorder()
	failed := false
	var ran []experiment
	for _, e := range experiments {
		if !all && !want[e.id] {
			continue
		}
		if sigCtx.Err() != nil {
			break
		}
		start := time.Now()
		fmt.Printf("== %s: %s\n", e.id, e.title)
		art, err := e.run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.id, err)
			failed = true
			continue
		}
		if err := writeArtifact(*out, e.id, art, *ascii); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.id, err)
			failed = true
			continue
		}
		ran = append(ran, e)
		fmt.Printf("   done in %v -> %s/%s.txt\n", time.Since(start).Round(time.Millisecond), *out, e.id)
	}
	if len(ran) > 0 {
		if err := writeIndex(*out, *refs, ran); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: index: %v\n", err)
			failed = true
		}
	}
	if sigCtx.Err() != nil {
		fmt.Fprintln(os.Stderr, "experiments: interrupted; completed artifacts and the checkpoint journal are intact")
		sess.Manifest.Interrupted = true
		failed = true
	}
	if err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: telemetry:", err)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// writeIndex records what was generated and with what parameters, so a
// results directory is self-describing.
func writeIndex(dir string, refs int, ran []experiment) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Results index\n\n")
	fmt.Fprintf(&b, "Generated by `cmd/experiments` with %d references per workload.\n\n", refs)
	fmt.Fprintf(&b, "| id | artifact | files |\n|---|---|---|\n")
	for _, e := range ran {
		files := fmt.Sprintf("`%s.txt`", e.id)
		if _, err := os.Stat(filepath.Join(dir, e.id+".csv")); err == nil {
			files += fmt.Sprintf(", `%s.csv`", e.id)
		}
		if _, err := os.Stat(filepath.Join(dir, e.id+".svg")); err == nil {
			files += fmt.Sprintf(", `%s.svg`", e.id)
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", e.id, e.title, files)
	}
	return os.WriteFile(filepath.Join(dir, "INDEX.md"), []byte(b.String()), 0o644)
}

// artifact is one experiment's output: human text plus optional CSV
// and SVG renderings.
type artifact struct {
	text string
	csv  string
	svg  string
}

func writeArtifact(dir, id string, art artifact, ascii bool) error {
	if err := os.WriteFile(filepath.Join(dir, id+".txt"), []byte(art.text), 0o644); err != nil {
		return err
	}
	if art.csv != "" {
		if err := os.WriteFile(filepath.Join(dir, id+".csv"), []byte(art.csv), 0o644); err != nil {
			return err
		}
	}
	if art.svg != "" {
		if err := os.WriteFile(filepath.Join(dir, id+".svg"), []byte(art.svg), 0o644); err != nil {
			return err
		}
	}
	if ascii {
		fmt.Println(art.text)
	}
	return nil
}
