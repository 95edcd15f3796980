// Command perfbench is the repository benchmark: one command that runs a
// named workload, checks every output it produces, and prints every
// metric by name with its unit.  The last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload grid-dense|trace-long|service-mix --seed N
//	          --seconds S --trace 0|1
//	perfbench --pin   # recompute the pinned result digests (Reference engine)
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// recorder and no spans.  With --trace 1 it makes a separate traced run:
// it times each layer through its public functions, reads the sweep
// recorder and the service's Stats(), keeps its own spans in memory and
// writes them out at the end, and prints each layer's self time.
//
// Every workload reports the same metric set, because each run must
// carry every metric the benchmark declares.  The unit of work differs:
// on the sweep workloads a "job" is one suite's sweep.RunContext call,
// on service-mix it is one HTTP request.  See workloads.go.
//
// Host time throughout; nothing here is simulated time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"subcache/internal/kernelbench"
	"subcache/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// bench is one benchmark invocation.  Tests build it with altered
// pinned digests, service options or fresh-job minimum to prove the
// correctness gate.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	// dir holds the run's journals, service data, spans and record.
	dir string
	// digests are the pinned per-(workload, suite) result digests.
	digests map[string]string
	// serviceOptions builds the options of every in-process server.
	serviceOptions func(dir string) service.Options
	// minFresh is how many fresh jobs a service-mix run needs; fewer
	// is a harness error (default minFreshJobs).
	minFresh int
	out      io.Writer
	rep      *report
	spans    *tracer
}

// sweepdOptions is sweepd's default configuration: only Dir is set.
func sweepdOptions(dir string) service.Options { return service.Options{Dir: dir} }

// run parses args, runs the benchmark and returns the exit code.  A
// non-nil b supplies the test overrides (digests, service options).
func run(args []string, stdout, stderr io.Writer, b *bench) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
		seed     = fs.Uint64("seed", 1, "seed of the run's generated inputs")
		seconds  = fs.Float64("seconds", 30, "seconds to measure")
		trace    = fs.Int("trace", 0, "1 makes the traced per-layer run")
		dir      = fs.String("dir", filepath.Join(".bench_build", "runs"), "scratch directory for journals, service data, spans and records")
		pin      = fs.Bool("pin", false, "print the pinned result digests, computed with the Reference engine, and exit")
		declPath = fs.String("benchmark", "BENCHMARK.json", "the benchmark declaration whose metric set a run must report")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pin {
		if err := printPins(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	decl, err := readDeclaration(*declPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	runWorkload, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if b == nil {
		b = &bench{}
	}
	b.workload, b.seed, b.traced = *workload, *seed, *trace == 1
	b.seconds = time.Duration(*seconds * float64(time.Second))
	b.out = stdout
	if b.digests == nil {
		b.digests = pinned
	}
	if b.serviceOptions == nil {
		b.serviceOptions = sweepdOptions
	}
	if b.minFresh == 0 {
		b.minFresh = minFreshJobs
	}
	runDir, err := filepath.Abs(filepath.Join(*dir, fmt.Sprintf("%s-seed%d-trace%d", b.workload, b.seed, *trace)))
	if err == nil {
		err = os.RemoveAll(runDir)
	}
	if err == nil {
		err = os.MkdirAll(runDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b.dir = runDir
	b.rep = &report{}
	b.spans = newTracer(b.traced)

	stamp := machineStamp()
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d engine=multipass\n", b.workload, b.seed, *seconds, *trace)
	fmt.Fprintf(stdout, "machine: nproc=%d gomaxprocs=%d go=%s cal_ns=%.4f\n",
		stamp.NProc, stamp.GOMAXPROCS, stamp.GoVersion, stamp.CalNs)

	if err := runWorkload(b); err != nil {
		// A failure of the harness itself (not of an operation): no
		// trustworthy measurement exists, so print no result.
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if b.traced {
		b.spans.writeTable(stdout)
		if err := b.spans.writeJSONL(filepath.Join(b.dir, "spans.jsonl")); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	b.rep.print(stdout)
	if err := b.rep.writeRecord(filepath.Join(b.dir, "record.json"), b, stamp); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	want := decl.EndToEnd
	if b.traced {
		want = decl.PerLayer
	}
	line, err := b.rep.resultLine(want)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !b.rep.correct() {
		fmt.Fprintf(stderr, "perfbench: correctness gate failed: %d of %d operations failed\n", b.rep.failed, b.rep.attempted)
		for _, why := range b.rep.failures {
			fmt.Fprintf(stderr, "  %dx %s\n", b.rep.counts[why], why)
		}
		return 1
	}
	return 0
}

// stamp names the hardware a record was measured on.
type stamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CalNs      float64 `json:"cal_ns"`
}

func machineStamp() stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CalNs:      kernelbench.Calibrate(),
	}
}

// metric is one reported figure.  N is the sample count behind it (0
// for a count or a deterministic figure).
type metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	N       int       `json:"n,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// report accumulates a run's operations, failures and metrics.
type report struct {
	attempted, failed int
	// failures counts each distinct failure reason, in first-seen order.
	failures []string
	counts   map[string]int
	metrics  []metric
	// extras are printed and recorded but not part of the result line.
	extras []metric
}

// op counts one attempted operation; a non-empty why marks it failed.
func (r *report) op(why string) {
	r.attempted++
	if why != "" {
		r.fail(why)
	}
}

// fail marks one operation failed without attempting another (a
// refusal or loss found after the fact).
func (r *report) fail(why string) {
	r.failed++
	if r.counts == nil {
		r.counts = map[string]int{}
	}
	if r.counts[why] == 0 {
		r.failures = append(r.failures, why)
	}
	r.counts[why]++
}

func (r *report) add(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: value, N: n})
}

// addSamples reports a value derived from samples, keeping them for
// the record.
func (r *report) addSamples(name, unit string, value float64, samples []float64) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: value, N: len(samples), Samples: samples})
}

// extra records the median of samples as a figure outside the
// declared metric set.
func (r *report) extra(name, unit string, samples []float64) {
	r.extras = append(r.extras, metric{Name: name, Unit: unit, Value: median(samples), N: len(samples), Samples: samples})
}

// addMedian reports the median of samples.
func (r *report) addMedian(name, unit string, samples []float64) {
	r.addSamples(name, unit, median(samples), samples)
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

func (r *report) failedFrac() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// print writes one human-readable line per metric, failed_frac first.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "  %-34s %14.6g %-6s (%d of %d operations)\n", "failed_frac", r.failedFrac(), "frac", r.failed, r.attempted)
	for _, list := range [][]metric{r.metrics, r.extras} {
		for _, m := range list {
			n := ""
			if m.N > 0 {
				n = fmt.Sprintf("(n=%d)", m.N)
			}
			fmt.Fprintf(w, "  %-34s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, n)
		}
	}
}

// resultLine renders the final JSON line.  The declared metric set for
// the run's mode must be exactly what was measured.
func (r *report) resultLine(want []declaredMetric) ([]byte, error) {
	got := map[string]metric{}
	for _, m := range r.metrics {
		got[m.Name] = m
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		out[d.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	if len(out) != len(got) {
		var extra []string
		for name := range got {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics measured: %v", extra)
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, out})
}

// writeRecord stores the run's full record: the machine stamp, sample
// counts and failures beside every metric.
func (r *report) writeRecord(path string, b *bench, st stamp) error {
	data, err := json.MarshalIndent(struct {
		Workload   string         `json:"workload"`
		Seed       uint64         `json:"seed"`
		Traced     bool           `json:"traced"`
		Seconds    float64        `json:"seconds"`
		Machine    stamp          `json:"machine"`
		Attempted  int            `json:"attempted"`
		Failed     int            `json:"failed"`
		FailedFrac float64        `json:"failed_frac"`
		Failures   map[string]int `json:"failures,omitempty"`
		Metrics    []metric       `json:"metrics"`
	}{b.workload, b.seed, b.traced, b.seconds.Seconds(), st, r.attempted, r.failed, r.failedFrac(), r.counts, r.metrics}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
