package main

// The service-mix workload and the service layer probe: an in-process
// sweepd (service.New with sweepd's default options) served on loopback
// and driven over HTTP.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"subcache/internal/service"
	"subcache/internal/sweep"
	"subcache/internal/synth"
	"subcache/internal/telemetry"
)

const (
	// mixClients closed-loop clients each wait for their result, as
	// sweepd's callers do.
	mixClients = 2
	// mixRefs is the trace length of pool and fresh requests.
	mixRefs = 20_000
)

var (
	// poolNets is the hit pool's grid: the three net sizes of Table 7,
	// so the served pool also carries the paper-accuracy figures.
	poolNets = []int{64, 256, 1024}
	// freshPairs are the fresh requests' net-size pairs.  Every block
	// of a client's schedule sends each (suite, pair) once, so the
	// seed orders the load but does not change its composition.
	freshPairs = [][]int{{64, 128}, {128, 256}, {256, 512}, {512, 1024}}
)

func poolWire(arch synth.Arch) service.SweepRequest {
	return service.SweepRequest{Arch: arch.String(), Nets: poolNets, Refs: mixRefs}
}

// poolRequest is the sweep a pool request resolves to in the service.
func poolRequest(arch synth.Arch) sweep.Request {
	return sweepRequestOf(poolWire(arch))
}

// sweepRequestOf mirrors the service's resolution of a wire request:
// the demand grid over its nets, engine multipass, auto shards.
func sweepRequestOf(w service.SweepRequest) sweep.Request {
	arch, err := synth.ParseArch(w.Arch)
	if err != nil {
		panic(err) // wire requests here are built from synth.Arch names
	}
	return sweep.Request{Arch: arch, Points: sweep.Grid(w.Nets, arch.WordSize()), Refs: w.Refs, Engine: sweep.MultiPass}
}

// server is one in-process service instance on a loopback listener.
type server struct {
	srv  *service.Server
	http *http.Server
	url  string
	done chan struct{}
}

func startServer(b *bench, dir string) (*server, error) {
	srv, err := service.New(b.serviceOptions(dir))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	s := &server{srv: srv, http: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.http.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return s, nil
}

// stop drains the HTTP front end, then the service's workers, and waits
// for the serving goroutine to exit.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	herr := s.http.Shutdown(ctx)
	<-s.done
	if err := s.srv.Shutdown(ctx); err != nil {
		return err
	}
	return herr
}

// client is an HTTP client with enough idle connections for the mix.
type client struct{ http *http.Client }

func newClient() *client {
	return &client{http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * mixClients}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post submits one request; wait asks the service to answer only when
// the job is done.
func (c *client) post(base string, w service.SweepRequest, wait bool) (int, *service.SubmitResponse, error) {
	body, err := json.Marshal(w)
	if err != nil {
		return 0, nil, err
	}
	url := base + "/v1/sweeps"
	if wait {
		url += "?wait=1"
	}
	resp, err := c.http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	return decodeSubmit(resp)
}

func (c *client) get(url string) (int, *service.SubmitResponse, error) {
	resp, err := c.http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	return decodeSubmit(resp)
}

func decodeSubmit(resp *http.Response) (int, *service.SubmitResponse, error) {
	defer resp.Body.Close()
	var out service.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("decoding reply (HTTP %d): %w", resp.StatusCode, err)
	}
	return resp.StatusCode, &out, nil
}

// checkDone gates one waited-for reply: HTTP 200, status done, a result
// that decodes, names the request, and carries every point of its grid.
func checkDone(w service.SweepRequest, code int, r *service.SubmitResponse, err error) (*service.Result, string) {
	if err != nil {
		return nil, fmt.Sprintf("%s %v: %v", w.Arch, w.Nets, err)
	}
	if code != http.StatusOK || r.Status != "done" {
		return nil, fmt.Sprintf("%s %v refs %d: HTTP %d status %q %s", w.Arch, w.Nets, w.Refs, code, r.Status, r.Error)
	}
	var res service.Result
	if err := json.Unmarshal(r.Result, &res); err != nil {
		return nil, fmt.Sprintf("%s %v: result: %v", w.Arch, w.Nets, err)
	}
	req := sweepRequestOf(w)
	if res.Fingerprint != r.ID || res.Arch != w.Arch || res.Refs != w.Refs || len(res.Points) != len(req.Points) {
		return nil, fmt.Sprintf("%s %v refs %d: served result does not match the request", w.Arch, w.Nets, w.Refs)
	}
	for _, p := range res.Points {
		if p.N != len(synth.Workloads(req.Arch)) || len(p.Runs) != p.N {
			return nil, fmt.Sprintf("%s %v: point %s has %d runs", w.Arch, w.Nets, p.Point, len(p.Runs))
		}
	}
	return &res, ""
}

// repeatFault gates the reply to a repeated request: it must come from
// the cache, byte-identical to the first reply's result.
func repeatFault(w service.SweepRequest, r *service.SubmitResponse, first []byte) string {
	if !r.Cached {
		return fmt.Sprintf("repeat of %s %v refs %d was simulated again", w.Arch, w.Nets, w.Refs)
	}
	if !bytes.Equal(r.Result, first) {
		return fmt.Sprintf("repeat of %s %v refs %d: result differs from the first reply", w.Arch, w.Nets, w.Refs)
	}
	return ""
}

// pool is the set of completed requests the mix repeats.
type pool struct {
	wires  []service.SweepRequest
	bodies map[string][]byte // id -> the first result body served
	ids    []string          // the service's id of each of wires
	served map[synth.Arch]*service.Result
}

// mixSetup starts a server on a fresh directory, fills the hit pool
// (the four suites' pool requests, concurrently), restarts the server
// over the same directory -- so the pool's first repeats are disk
// reads -- and returns the restarted server.  fill is the pool's wall
// time: one four-suite sweep served by the service.
func mixSetup(b *bench, dir string, parent *activeSpan) (*server, *pool, time.Duration, error) {
	sp := b.spans.start("service.New", parent)
	a, err := startServer(b, dir)
	sp.end()
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient()
	defer c.close()
	archs := synth.AllArchs()
	p := &pool{bodies: map[string][]byte{}, ids: make([]string, len(archs)), served: map[synth.Arch]*service.Result{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, arch := range archs {
		w := poolWire(arch)
		p.wires = append(p.wires, w)
		wg.Add(1)
		go func(i int, arch synth.Arch, w service.SweepRequest) {
			defer wg.Done()
			sp := b.spans.start("service.post_wait", parent)
			code, r, err := c.post(a.url, w, true)
			sp.end()
			res, why := checkDone(w, code, r, err)
			if why == "" && servedDigest(res) != b.digests[digestKey(serviceMix, arch)] {
				why = fmt.Sprintf("pool %s: served digest differs from the pinned Reference digest", arch)
			}
			mu.Lock()
			defer mu.Unlock()
			b.rep.op(why)
			if why == "" {
				p.ids[i] = r.ID
				p.bodies[r.ID] = r.Result
				p.served[arch] = res
			}
		}(i, arch, w)
	}
	wg.Wait()
	fill := time.Since(t0)
	sp = b.spans.start("service.Shutdown", parent)
	err = a.stop()
	sp.end()
	if err != nil {
		return nil, nil, 0, err
	}
	sp = b.spans.start("service.New", parent)
	s, err := startServer(b, dir)
	sp.end()
	if err != nil {
		return nil, nil, 0, err
	}
	return s, p, fill, nil
}

// mixOutcome is what the clients saw.
type mixOutcome struct {
	fresh, hits []float64 // ms
	freshIDs    map[string]bool
	// served holds every fresh request that passed its reply check,
	// with the served digest of its result, for verifyFresh.
	served   []freshReply
	requests int
	elapsed  time.Duration
}

// freshReply is one fresh request and the served digest of its result.
type freshReply struct {
	wire   service.SweepRequest
	digest string
}

const (
	// mixFresh and mixRepeats make up each block of a client's
	// schedule: a quarter of the requests are fresh, the share
	// cmd/sweeploadgen uses by default (-fresh 0.25).
	mixFresh   = 16
	mixRepeats = 48
	// minFreshJobs is how many fresh jobs a service-mix run needs for
	// its fresh-latency quantiles.
	minFreshJobs = 100
)

// runMix drives the closed-loop clients until d has passed.  Each
// client repeats blocks of mixFresh+mixRepeats requests in a seeded
// order: every (suite, fresh pair) once, with a trace length no other
// request uses, so each is a fresh fingerprint; and every pool request
// mixRepeats/4 times.
func runMix(b *bench, s *server, p *pool, d time.Duration, parent *activeSpan) *mixOutcome {
	out := &mixOutcome{freshIDs: map[string]bool{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	c := newClient()
	defer c.close()
	archs := synth.AllArchs()
	start := time.Now()
	for ci := 0; ci < mixClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(b.seed)*1_000_003 + int64(ci)))
			nfresh := 0
			for time.Since(start) < d {
				for _, k := range rng.Perm(mixFresh + mixRepeats) {
					if time.Since(start) >= d {
						break
					}
					if k < mixFresh {
						w := service.SweepRequest{Arch: archs[k%4].String(), Nets: freshPairs[k/4], Refs: mixRefs + mixClients*nfresh + ci}
						nfresh++
						sp := b.spans.start("service.post_wait", parent)
						t0 := time.Now()
						code, r, err := c.post(s.url, w, true)
						lat := time.Since(t0)
						sp.end()
						res, why := checkDone(w, code, r, err)
						if why == "" && r.Cached {
							why = fmt.Sprintf("fresh request %s refs %d served from cache", w.Arch, w.Refs)
						}
						mu.Lock()
						b.rep.op(why)
						out.fresh = append(out.fresh, ms(lat))
						if r != nil {
							out.freshIDs[r.ID] = true
						}
						if why == "" {
							out.served = append(out.served, freshReply{w, servedDigest(res)})
						}
						out.requests++
						mu.Unlock()
						continue
					}
					i := (k - mixFresh) % len(p.wires)
					w := p.wires[i]
					sp := b.spans.start("service.post_wait", parent)
					t0 := time.Now()
					code, r, err := c.post(s.url, w, true)
					lat := time.Since(t0)
					sp.end()
					_, why := checkDone(w, code, r, err)
					if why == "" {
						why = repeatFault(w, r, p.bodies[p.ids[i]])
					}
					mu.Lock()
					b.rep.op(why)
					out.hits = append(out.hits, ms(lat))
					out.requests++
					mu.Unlock()
				}
			}
		}(ci)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// freshChecksPerKind is how many fresh replies of each (suite, net
// pair) verifyFresh re-runs with the Reference engine.
const freshChecksPerKind = 2

// verifyFresh re-runs a seeded sample of the mix's fresh requests bare
// with the Reference engine, the repository's correctness oracle, and
// fails every one whose served result differs.  The sample takes
// freshChecksPerKind requests of each (suite, net pair), so every grid
// the mix serves fresh is checked; re-running all of them would take
// longer than the mix.  It runs after the timed phase, one sweep per
// client at a time.
func verifyFresh(b *bench, out *mixOutcome, parent *activeSpan) {
	kinds := map[string][]freshReply{}
	var keys []string
	for _, f := range out.served {
		k := fmt.Sprint(f.wire.Arch, f.wire.Nets)
		if kinds[k] == nil {
			keys = append(keys, k)
		}
		kinds[k] = append(kinds[k], f)
	}
	sort.Strings(keys)
	rng := rand.New(rand.NewSource(int64(b.seed)))
	var sample []freshReply
	for _, k := range keys {
		for n, i := range rng.Perm(len(kinds[k])) {
			if n == freshChecksPerKind {
				break
			}
			sample = append(sample, kinds[k][i])
		}
	}
	sp := b.spans.start("bench.verify_fresh", parent)
	defer sp.end()
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan freshReply)
	for ci := 0; ci < mixClients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range next {
				req := sweepRequestOf(f.wire)
				req.Engine = sweep.Reference
				_, why := bareCheck(b, sp, req, f.digest)
				if why != "" {
					mu.Lock()
					b.rep.fail(why)
					mu.Unlock()
				}
			}
		}()
	}
	for _, f := range sample {
		next <- f
	}
	close(next)
	wg.Wait()
}

// bareCheck runs req with sweep.RunContext alone -- no service, no
// checkpoint -- and checks that its served fields hash to want.
func bareCheck(b *bench, parent *activeSpan, req sweep.Request, want string) (time.Duration, string) {
	sp := b.spans.start("sweep.RunContext", parent)
	t0 := time.Now()
	res, err := sweep.RunContext(context.Background(), req)
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return d, fmt.Sprintf("bare %s refs %d: %v", req.Arch, req.Refs, err)
	}
	if servedDigestOf(res) != want {
		return d, fmt.Sprintf("bare %s engine %s refs %d: result differs from the served one", req.Arch, req.Engine, req.Refs)
	}
	return d, ""
}

// checkAdmissions gates the server's own accounting: every distinct
// fresh fingerprint admitted exactly once, nothing refused, no repeat
// re-simulated.  Each surplus or missing admission counts as a failure.
func checkAdmissions(b *bench, st *telemetry.Snapshot, distinct int) {
	admitted := int(st.Counter(telemetry.RequestsAdmitted))
	if admitted != distinct {
		diff := admitted - distinct
		if diff < 0 {
			diff = -diff
		}
		for i := 0; i < diff; i++ {
			b.rep.fail(fmt.Sprintf("requests_admitted %d, distinct fresh fingerprints %d (a duplicate simulation or a lost job)", admitted, distinct))
		}
	}
	if n := int(st.Counter(telemetry.RequestsRejected)); n > 0 {
		for i := 0; i < n; i++ {
			b.rep.fail(fmt.Sprintf("%d requests refused by admission control", n))
		}
	}
}

func runServiceMix(b *bench) error {
	if b.traced {
		return runServiceMixTraced(b)
	}
	// Set-up runs setupReps times before the mix and again after it;
	// the mix uses the last server set up before it.
	var setups, fills []float64
	setUp := func(i int) (*server, *pool, error) {
		t0 := time.Now()
		s, p, fill, err := mixSetup(b, filepath.Join(b.dir, fmt.Sprintf("service-%d", i)), nil)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		fills = append(fills, fill.Seconds())
		return s, p, nil
	}
	var s *server
	var p *pool
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return err
			}
		}
		var err error
		if s, p, err = setUp(i); err != nil {
			return err
		}
	}
	heap := startHeapSampler()
	out := runMix(b, s, p, b.seconds, nil)
	peak, windows := heap.stop()
	checkAdmissions(b, s.srv.Stats(), len(out.freshIDs))
	if err := s.stop(); err != nil {
		return err
	}
	if len(out.fresh) < b.minFresh {
		return fmt.Errorf("only %d fresh jobs in %v; the fresh-latency quantiles need at least %d", len(out.fresh), b.seconds, b.minFresh)
	}
	verifyFresh(b, out, nil)
	for i := setupReps; i < 2*setupReps; i++ {
		after, _, err := setUp(i)
		if err != nil {
			return err
		}
		if err := after.stop(); err != nil {
			return err
		}
	}

	b.rep.addMedian("sweep_s", "s", fills)
	b.rep.add("jobs_per_s", "1/s", float64(out.requests)/out.elapsed.Seconds(), out.requests)
	b.rep.addMedian("fresh_latency_p50_ms", "ms", out.fresh)
	b.rep.addSamples("fresh_latency_p90_ms", "ms", quantile(out.fresh, 0.9), out.fresh)
	b.rep.add("peak_heap_mb", "MB", peak, windows)
	b.rep.addMedian("setup_s", "s", setups)
	// Printed and recorded, not declared: the sweep workloads have no
	// cache-hit path to report it for.
	b.rep.extra("hit_latency_p50_ms", "ms", out.hits)
	return b.addPaperMetrics(servedLookup(p.served))
}

// mixProbeJobs is how many fresh requests the traced run submits
// without waiting, then re-runs bare.
const mixProbeJobs = 8

// runServiceMixTraced runs half a run of mix, then probes the layers
// on the mix's grids and the service on mixProbeJobs fresh requests.
// The probe requests' bare re-runs, with and without a recorder, are
// this workload's recorder-overhead pairs.
func runServiceMixTraced(b *bench) error {
	root := b.spans.start("bench.run", nil)
	defer root.end()
	sp := b.spans.start("bench.setup", root)
	s, p, _, err := mixSetup(b, filepath.Join(b.dir, "service"), sp)
	sp.end()
	if err != nil {
		return err
	}
	sp = b.spans.start("bench.mix", root)
	out := runMix(b, s, p, b.seconds/2, sp)
	sp.end()
	verifyFresh(b, out, root)

	// The mix's fresh trace lengths start at mixRefs; the probe's end
	// just below it, so every probe request is fresh too.
	var calls []wireCall
	archs := synth.AllArchs()
	for i := 0; i < mixProbeJobs; i++ {
		w := service.SweepRequest{Arch: archs[i%4].String(), Nets: freshPairs[(i/4)%len(freshPairs)], Refs: mixRefs - 1 - i}
		calls = append(calls, wireCall{wire: w})
	}
	var shapes []probeShape
	for _, arch := range archs {
		shapes = append(shapes, shapeOf(sweepRequestOf(service.SweepRequest{Arch: arch.String(), Nets: freshPairs[2], Refs: mixRefs})))
	}
	if err := probeLayers(b, root, shapes); err != nil {
		return err
	}
	pdp := poolRequest(synth.PDP11)
	res, err := sweep.RunContext(context.Background(), pdp)
	if err != nil {
		return err
	}
	if err := probeCheckpoint(b, root, pdp, res); err != nil {
		return err
	}

	pr, err := probeService(b, root, s, calls)
	if err != nil {
		return err
	}
	stats := s.srv.Stats()
	checkAdmissions(b, stats, len(out.freshIDs)+len(calls))
	pr.report(b, root, stats)

	// Each probe request bare without and with a recorder, alternating
	// which goes first; the overhead is the median ratio.
	var ratios []float64
	var snaps []*telemetry.Snapshot
	osp := b.spans.start("bench.recorder_pairs", root)
	for i, call := range calls {
		if pr.digests[i] == "" {
			continue
		}
		var plain, traced time.Duration
		for _, withRec := range [2]bool{i%2 != 0, i%2 == 0} {
			req := sweepRequestOf(call.wire)
			var rec *telemetry.Run
			if withRec {
				rec = telemetry.NewRun(telemetry.Options{})
				req.Recorder = rec
			}
			d, why := bareCheck(b, osp, req, pr.digests[i])
			b.rep.op(why)
			if rec == nil {
				plain = d
				continue
			}
			traced = d
			rec.Close()
			snaps = append(snaps, rec.Snapshot())
		}
		ratios = append(ratios, traced.Seconds()/plain.Seconds())
	}
	osp.end()
	b.rep.add("telemetry.overhead_frac", "frac", median(ratios)-1, len(ratios))
	addRecorderMetrics(b, snaps, len(snaps))
	return s.stop()
}

// wireCall is one service probe request; want, when set, is the served
// digest its result must have.
type wireCall struct {
	wire service.SweepRequest
	want string
}

// serviceProbe is what probeService saw of each of its requests.
type serviceProbe struct {
	calls   []wireCall
	submits []float64 // ms, client-side POST without wait
	execs   []float64 // ms, the job's attempt spans
	bodies  [][]byte  // the served result, nil when the request failed
	digests []string  // servedDigest of each body
}

// probeService serves calls one at a time on s, so each execution time
// is the sweep alone.  It submits each without waiting (the submit
// latency), waits for it, and reads the job's execution time from its
// event stream.
func probeService(b *bench, root *activeSpan, s *server, calls []wireCall) (*serviceProbe, error) {
	c := newClient()
	defer c.close()
	pr := &serviceProbe{calls: calls, execs: make([]float64, len(calls)), bodies: make([][]byte, len(calls)), digests: make([]string, len(calls))}
	psp := b.spans.start("bench.service_probe", root)
	defer psp.end()
	for i, call := range calls {
		sp := b.spans.start("service.post", psp)
		t0 := time.Now()
		code, r, err := c.post(s.url, call.wire, false)
		pr.submits = append(pr.submits, ms(time.Since(t0)))
		sp.end()
		if err != nil || code != http.StatusAccepted {
			b.rep.op(fmt.Sprintf("probe submit %s %v: HTTP %d %v", call.wire.Arch, call.wire.Nets, code, err))
			continue
		}
		sp = b.spans.start("service.get_wait", psp)
		code, r, err = c.get(s.url + "/v1/sweeps/" + r.ID + "?wait=1")
		sp.end()
		res, why := checkDone(call.wire, code, r, err)
		if why == "" && call.want != "" && servedDigest(res) != call.want {
			why = fmt.Sprintf("probe %s %v: served digest differs from the workload's own sweep", call.wire.Arch, call.wire.Nets)
		}
		b.rep.op(why)
		if why != "" {
			continue
		}
		pr.bodies[i], pr.digests[i] = r.Result, servedDigest(res)
		sp = b.spans.start("service.events", psp)
		exec, err := attemptTime(c, s.url+r.Events)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("probe %s events: %w", r.ID, err)
		}
		pr.execs[i] = ms(exec)
	}
	return pr, nil
}

// report re-runs each probed request bare, checks it equals what the
// service served, and reports the service metrics: st's histograms and
// counters, the submit latencies, and each job's execution time beyond
// its bare sweep.
func (pr *serviceProbe) report(b *bench, root *activeSpan, st *telemetry.Snapshot) {
	var overheads []float64
	sp := b.spans.start("bench.bare", root)
	for i, call := range pr.calls {
		if pr.digests[i] == "" {
			continue
		}
		d, why := bareCheck(b, sp, sweepRequestOf(call.wire), pr.digests[i])
		b.rep.op(why)
		overheads = append(overheads, pr.execs[i]-ms(d))
	}
	sp.end()
	addServiceMetrics(b, st, pr.submits, overheads)
}

// attemptTime sums the "attempt" spans of a job's event stream: the
// service's own timing of its sweep.RunContext calls.
func attemptTime(c *client, url string) (time.Duration, error) {
	resp, err := c.http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	names := map[string]string{}
	var total time.Duration
	found := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var ev telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return 0, err
		}
		switch {
		case ev.Span != nil:
			names[ev.Span.ID] = ev.Span.Name
		case ev.SpanEnd != nil && names[ev.SpanEnd.ID] == "attempt":
			total += time.Duration(ev.SpanEnd.DurNanos)
			found = true
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("no attempt span in the event stream")
	}
	return total, nil
}

// histMS is a service histogram's q-quantile in ms (0 when empty).
func histMS(st *telemetry.Snapshot, h telemetry.Hist, q float64) float64 {
	hs := st.Hist(h)
	if hs == nil {
		return 0
	}
	return hs.Quantile(q) / 1e6
}

func addServiceMetrics(b *bench, st *telemetry.Snapshot, submits, overheads []float64) {
	admitted := float64(st.Counter(telemetry.RequestsAdmitted))
	hits := float64(st.Counter(telemetry.CacheHits))
	requests := admitted + hits + float64(st.Counter(telemetry.RequestsDeduped))
	ratio := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	b.rep.add("service.submit_ms_p50", "ms", median(submits), len(submits))
	b.rep.add("service.queue_wait_ms_p50", "ms", histMS(st, telemetry.HistQueueWait, 0.5), 0)
	b.rep.add("service.queue_wait_ms_p90", "ms", histMS(st, telemetry.HistQueueWait, 0.9), 0)
	b.rep.add("service.execution_ms_p50", "ms", histMS(st, telemetry.HistExecution, 0.5), 0)
	b.rep.add("service.cache_read_ms_p50", "ms", histMS(st, telemetry.HistCacheRead, 0.5), 0)
	b.rep.add("service.cache_write_ms_p50", "ms", histMS(st, telemetry.HistCacheWrite, 0.5), 0)
	b.rep.add("service.hit_ratio", "frac", ratio(hits, requests), 0)
	b.rep.add("service.journal_records_per_job", "count", ratio(float64(st.Counter(telemetry.JobJournalRecords)), admitted), 0)
	b.rep.add("service.exec_overhead_ms", "ms", median(overheads), len(overheads))
}
