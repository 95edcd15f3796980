package main

// The sweep workloads, grid-dense and trace-long.  Both run the fixed
// catalog suites -- their trace seeds are part of the reproduction --
// so the benchmark seed only permutes the order the suites run in.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"subcache/internal/cache"
	"subcache/internal/service"
	"subcache/internal/sweep"
	"subcache/internal/synth"
	"subcache/internal/telemetry"
)

const serviceMix = "service-mix"

// workloads runs each named workload.
var workloads = map[string]func(b *bench) error{
	gridDense.name: gridDense.run,
	traceLong.name: traceLong.run,
	serviceMix:     runServiceMix,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sweepWorkload is a full four-suite sweep: one sweep.RunContext call
// per suite, engine multipass (the default of cmd/experiments and
// sweepd), auto shards.
type sweepWorkload struct {
	name string
	nets []int
	// loadForward adds a load-forward twin of every point whose
	// sub-block is smaller than its block.
	loadForward bool
	refs        int
}

var (
	// gridDense: the Table 1 grid over seven net sizes, demand and
	// load-forward, at 100k references -- the kernels dominate.
	gridDense = sweepWorkload{name: "grid-dense", nets: []int{32, 64, 128, 256, 512, 1024, 2048}, loadForward: true, refs: 100_000}
	// traceLong: the paper's 1M-reference traces on the one-net demand
	// grid -- few points per reference, so trace generation, packing
	// and broadcast carry the load.
	traceLong = sweepWorkload{name: "trace-long", nets: []int{1024}, refs: 1_000_000}

	sweepWorkloads = []sweepWorkload{gridDense, traceLong}
)

// setupReps is how many times a run sets up before its timed phase,
// and again after it: setup_s is the median of all of them, so it spans
// the run rather than one moment of the machine's speed.
const setupReps = 5

// warmRefs is the trace length of the set-up's warm-up sweep.
const warmRefs = 4096

func (w sweepWorkload) request(arch synth.Arch) sweep.Request {
	pts := sweep.Grid(w.nets, arch.WordSize())
	if w.loadForward {
		for _, p := range pts {
			if p.Sub < p.Block {
				lf := p
				lf.Fetch = cache.LoadForward
				pts = append(pts, lf)
			}
		}
	}
	return sweep.Request{Arch: arch, Points: pts, Refs: w.refs, Engine: sweep.MultiPass}
}

// setUp builds the four requests and runs each suite's full grid once
// on a short trace, so the timed sweeps pay no first-use cost.
func (w sweepWorkload) setUp(ctx context.Context, b *bench, parent *activeSpan) (map[synth.Arch]sweep.Request, error) {
	reqs := map[synth.Arch]sweep.Request{}
	for _, arch := range synth.AllArchs() {
		reqs[arch] = w.request(arch)
		warm := reqs[arch]
		warm.Refs = warmRefs
		sp := b.spans.start("sweep.RunContext", parent)
		_, err := sweep.RunContext(ctx, warm)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("%s set-up %s: %w", w.name, arch, err)
		}
	}
	return reqs, nil
}

// check gates one suite's sweep: no error, no lost point, and the
// pinned digest.
func (w sweepWorkload) check(b *bench, arch synth.Arch, res *sweep.Result, err error) string {
	if err != nil {
		return fmt.Sprintf("%s %s: %v", w.name, arch, err)
	}
	if len(res.Errors) > 0 {
		return fmt.Sprintf("%s %s: %d points lost", w.name, arch, len(res.Errors))
	}
	if got, pin := resultDigest(res), b.digests[digestKey(w.name, arch)]; got != pin {
		return fmt.Sprintf("%s %s: result digest %.12s, pinned %.12s", w.name, arch, got, pin)
	}
	return ""
}

// sweepSuite runs and gates one suite's sweep, returning its latency.
func (w sweepWorkload) sweepSuite(ctx context.Context, b *bench, req sweep.Request, parent *activeSpan) (*sweep.Result, time.Duration) {
	sp := b.spans.start("sweep.RunContext", parent)
	t0 := time.Now()
	res, err := sweep.RunContext(ctx, req)
	d := time.Since(t0)
	sp.end()
	b.rep.op(w.check(b, req.Arch, res, err))
	return res, d
}

func (w sweepWorkload) run(b *bench) error {
	if b.traced {
		return w.runTraced(b)
	}
	ctx := context.Background()
	var setups []float64
	var reqs map[synth.Arch]sweep.Request
	setUp := func() error {
		t0 := time.Now()
		var err error
		reqs, err = w.setUp(ctx, b, nil)
		setups = append(setups, time.Since(t0).Seconds())
		return err
	}
	for i := 0; i < setupReps; i++ {
		if err := setUp(); err != nil {
			return err
		}
	}

	rng := rand.New(rand.NewSource(int64(b.seed)))
	archs := synth.AllArchs()
	results := map[synth.Arch]*sweep.Result{}
	fresh := map[synth.Arch][]float64{}
	var sweeps, all []float64
	heap := startHeapSampler()
	start := time.Now()
	for time.Since(start) < b.seconds || len(sweeps) == 0 {
		var total time.Duration
		for _, k := range rng.Perm(len(archs)) {
			arch := archs[k]
			res, d := w.sweepSuite(ctx, b, reqs[arch], nil)
			results[arch] = res
			total += d
			fresh[arch] = append(fresh[arch], ms(d))
			all = append(all, ms(d))
		}
		sweeps = append(sweeps, total.Seconds())
	}
	elapsed := time.Since(start)
	peak, windows := heap.stop()
	for i := 0; i < setupReps; i++ {
		if err := setUp(); err != nil {
			return err
		}
	}

	// The four suites' jobs differ several-fold in length, so a sample
	// quantile over all jobs lands in the gap between two suites and
	// swings with their extreme samples.  Job latency quantiles here
	// are taken over the suites' median latencies instead.
	var suiteMed []float64
	for _, arch := range archs {
		suiteMed = append(suiteMed, median(fresh[arch]))
	}
	b.rep.addMedian("sweep_s", "s", sweeps)
	b.rep.add("jobs_per_s", "1/s", float64(len(all))/elapsed.Seconds(), len(all))
	b.rep.addSamples("fresh_latency_p50_ms", "ms", median(suiteMed), all)
	b.rep.addSamples("fresh_latency_p90_ms", "ms", quantile(suiteMed, 0.9), all)
	b.rep.add("peak_heap_mb", "MB", peak, windows)
	b.rep.addMedian("setup_s", "s", setups)
	return b.addPaperMetrics(sweepLookup(results))
}

// runTraced is the sweep workloads' per-layer run.  It alternates
// untraced sweeps with sweeps carrying a telemetry recorder (the
// difference is the recorder's overhead), then times each layer alone
// on the workload's own traces and grid, then serves the same four
// requests through an in-process service.
func (w sweepWorkload) runTraced(b *bench) error {
	ctx := context.Background()
	root := b.spans.start("bench.run", nil)
	defer root.end()
	sp := b.spans.start("bench.setup", root)
	reqs, err := w.setUp(ctx, b, sp)
	sp.end()
	if err != nil {
		return err
	}

	archs := synth.AllArchs()
	results := map[synth.Arch]*sweep.Result{}
	// Each suite's sweep runs back to back without and with a recorder,
	// alternating which goes first; the overhead is the median ratio.
	var ratios []float64
	var snaps []*telemetry.Snapshot
	start := time.Now()
	for it := 0; time.Since(start) < b.seconds || it < 2; it++ {
		isp := b.spans.start("bench.sweep_pair", root)
		for k, arch := range archs {
			var plain, traced time.Duration
			for _, withRec := range [2]bool{(it+k)%2 == 0, (it+k)%2 != 0} {
				req := reqs[arch]
				var rec *telemetry.Run
				if withRec {
					rec = telemetry.NewRun(telemetry.Options{})
					req.Recorder = rec
				}
				res, f := w.sweepSuite(ctx, b, req, isp)
				results[arch] = res
				if rec == nil {
					plain = f
					continue
				}
				traced = f
				rec.Close()
				snaps = append(snaps, rec.Snapshot())
			}
			ratios = append(ratios, traced.Seconds()/plain.Seconds())
		}
		isp.end()
	}
	b.rep.add("telemetry.overhead_frac", "frac", median(ratios)-1, len(ratios))
	addRecorderMetrics(b, snaps, len(snaps)/len(archs))

	var shapes []probeShape
	for _, arch := range archs {
		shapes = append(shapes, shapeOf(reqs[arch]))
	}
	if err := probeLayers(b, root, shapes); err != nil {
		return err
	}
	if err := probeCheckpoint(b, root, reqs[synth.PDP11], results[synth.PDP11]); err != nil {
		return err
	}
	// The service serves demand-fetch grids only, so grid-dense's
	// load-forward twins are not part of its requests.
	var calls []wireCall
	for _, arch := range archs {
		wire := service.SweepRequest{Arch: arch.String(), Nets: w.nets, Refs: w.refs}
		calls = append(calls, wireCall{wire: wire, want: servedDigestOf(results[arch])})
	}
	return serveTraced(b, root, calls)
}

// serveTraced serves the sweep workload's own requests one at a time
// through a fresh server, then restarts the server over the same
// directory and repeats every request, which must come back as a
// byte-identical cache hit read from disk.  Both servers' stats feed
// the service metrics.
func serveTraced(b *bench, root *activeSpan, calls []wireCall) error {
	dir := filepath.Join(b.dir, "service-probe")
	sp := b.spans.start("service.New", root)
	s, err := startServer(b, dir)
	sp.end()
	if err != nil {
		return err
	}
	pr, err := probeService(b, root, s, calls)
	if err != nil {
		s.stop()
		return err
	}
	stats := s.srv.Stats()
	rsp := b.spans.start("bench.service_repeat", root)
	again, err := repeatAfterRestart(b, rsp, dir, s, calls, pr)
	rsp.end()
	if err != nil {
		return err
	}
	stats = mergeSnapshots(stats, again)
	checkAdmissions(b, stats, len(calls))
	pr.report(b, root, stats)
	return nil
}

// repeatAfterRestart stops s, starts a server over the same directory
// and repeats every request pr served; each must be a cache hit
// byte-identical to the first reply.  It returns the new server's
// stats.
func repeatAfterRestart(b *bench, parent *activeSpan, dir string, s *server, calls []wireCall, pr *serviceProbe) (*telemetry.Snapshot, error) {
	sp := b.spans.start("service.Shutdown", parent)
	err := s.stop()
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = b.spans.start("service.New", parent)
	s, err = startServer(b, dir)
	sp.end()
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.close()
	for i, call := range calls {
		if pr.bodies[i] == nil {
			continue
		}
		sp := b.spans.start("service.post_wait", parent)
		code, r, err := c.post(s.url, call.wire, true)
		sp.end()
		_, why := checkDone(call.wire, code, r, err)
		if why == "" {
			why = repeatFault(call.wire, r, pr.bodies[i])
		}
		b.rep.op(why)
	}
	stats := s.srv.Stats()
	sp = b.spans.start("service.Shutdown", parent)
	err = s.stop()
	sp.end()
	return stats, err
}

// mergeSnapshots adds two servers' counters and histograms.
func mergeSnapshots(a, b *telemetry.Snapshot) *telemetry.Snapshot {
	out := &telemetry.Snapshot{Counters: map[string]uint64{}, Hists: map[string]*telemetry.HistSnap{}}
	for _, s := range []*telemetry.Snapshot{a, b} {
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, h := range s.Hists {
			if out.Hists[k] == nil {
				out.Hists[k] = &telemetry.HistSnap{}
			}
			out.Hists[k].Merge(h)
		}
	}
	return out
}
