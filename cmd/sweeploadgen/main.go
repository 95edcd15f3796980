// Command sweeploadgen drives a running sweepd with a configurable
// open-loop request load -- steady rates, RPS ramps and bursts,
// modeled on the vhive/invitro trace synthesizer's Normal/Sweep/Burst
// trio -- and records throughput, cache-hit rate and latency
// percentiles into BENCH_service.json.
//
// Usage:
//
//	sweeploadgen [-addr HOST:PORT] [-mode steady|ramp|burst]
//	             [-duration DUR] [-start-rps F] [-target-rps F] [-slots N]
//	             [-burst-rps F] [-burst-every DUR] [-burst-len DUR]
//	             [-fresh F] [-tenants N] [-seed N]
//	             [-arch NAME] [-nets LIST] [-refs N]
//	             [-retries N] [-retry-backoff DUR]
//	             [-timeout DUR] [-poll DUR] [-out FILE]
//
// The generator fires sweep submissions at the scheduled rate: in
// "steady" mode a flat -start-rps; in "ramp" mode -slots equal time
// slices stepping linearly from -start-rps to -target-rps (the
// synthesizer's RPS sweep); in "burst" mode a -start-rps baseline with
// -burst-rps spikes of -burst-len every -burst-every (its burst mode).
// A -fresh fraction of requests carries a never-seen fingerprint
// (forcing a real simulation); the rest repeat a small pool of known
// requests, which must be answered by the fingerprint cache or by
// joining an identical in-flight sweep -- never by re-simulating.
//
// Every request is driven to a terminal state: submissions poll until
// done/failed, and a refused or unreachable submission (429 queue
// full, 503 draining/recovering, connection reset while the daemon
// restarts) is retried up to -retries times with capped exponential
// backoff plus jitter starting at -retry-backoff, so a well-behaved
// client rides out admission pressure and daemon restarts instead of
// giving up.  The record counts completions, cache hits, dedup joins,
// fresh simulations, submit retries (retries_total), admission
// rejections that survived every retry, failures, losses (no terminal
// state before -timeout) and duplicate re-simulations (a repeated
// fingerprint admitted more than once).
// The exit status is non-zero if any request was lost, any duplicate
// re-simulated, or nothing completed -- so CI can assert the service
// contract by just running this harness.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"subcache/internal/durable"
	"subcache/internal/service"
	"subcache/internal/telemetry"
)

type latencyStats struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

type benchRecord struct {
	Bench           string  `json:"bench"`
	Mode            string  `json:"mode"`
	DurationSeconds float64 `json:"duration_seconds"`
	StartRPS        float64 `json:"start_rps"`
	TargetRPS       float64 `json:"target_rps,omitempty"`
	BurstRPS        float64 `json:"burst_rps,omitempty"`
	FreshFraction   float64 `json:"fresh_fraction"`
	Tenants         int     `json:"tenants"`
	Refs            int     `json:"refs_per_workload"`

	Requests         int `json:"requests"`
	Completed        int `json:"completed"`
	CacheHits        int `json:"cache_hits"`
	DedupJoins       int `json:"dedup_joins"`
	FreshSimulations int `json:"fresh_simulations"`
	Rejected         int `json:"rejected"`
	Failed           int `json:"failed"`
	// Lost counts accepted requests that never reached a terminal
	// state before the harness timeout; the service contract is 0.
	Lost int `json:"lost"`
	// DuplicateResimulations counts repeat-fingerprint submissions the
	// server admitted as fresh simulations instead of serving from
	// cache or dedup; the service contract is 0.
	DuplicateResimulations int `json:"duplicate_resimulations"`
	// RetriesTotal counts submit retries across all requests: each one
	// is a 429/503 refusal or transport failure absorbed by backoff
	// instead of surfacing as a rejection.
	RetriesTotal int `json:"retries_total"`

	CacheHitRate  float64      `json:"cache_hit_rate"`
	ThroughputRPS float64      `json:"throughput_rps"`
	LatencyMS     latencyStats `json:"latency_ms"`
	// QueueWaitMS and ExecutionMS break the end-to-end latency into its
	// server-side components, read from sweepd's /v1/stats histograms
	// (absent when the server predates them or saw no jobs).
	QueueWaitMS *latencyStats `json:"queue_wait_ms,omitempty"`
	ExecutionMS *latencyStats `json:"execution_ms,omitempty"`

	Server json.RawMessage `json:"server_stats,omitempty"`
}

// outcome classifies one finished request.
type outcome struct {
	latency  time.Duration
	fp       string
	retries  int
	cached   bool
	deduped  bool
	admitted bool
	rejected bool
	failed   bool
	lost     bool
}

func main() {
	var (
		addr       = flag.String("addr", "localhost:8080", "sweepd address (host:port)")
		mode       = flag.String("mode", "ramp", "load shape: steady, ramp or burst")
		duration   = flag.Duration("duration", 10*time.Second, "generation window")
		startRPS   = flag.Float64("start-rps", 4, "starting (or baseline) requests per second")
		targetRPS  = flag.Float64("target-rps", 16, "final RPS of the ramp")
		slots      = flag.Int("slots", 4, "ramp slots (equal time slices start->target)")
		burstRPS   = flag.Float64("burst-rps", 40, "burst-mode spike RPS")
		burstEvery = flag.Duration("burst-every", 3*time.Second, "burst period")
		burstLen   = flag.Duration("burst-len", 500*time.Millisecond, "burst length")
		fresh      = flag.Float64("fresh", 0.25, "fraction of requests with a never-seen fingerprint")
		tenants    = flag.Int("tenants", 2, "distinct tenant names to spread requests over")
		seed       = flag.Int64("seed", 1, "deterministic request-mix seed")
		arch       = flag.String("arch", "Z8000", "architecture suite for the generated sweeps")
		nets       = flag.String("nets", "64,256", "comma-separated net sizes for the generated sweeps")
		refs       = flag.Int("refs", 20000, "base references per workload")
		retries    = flag.Int("retries", 5, "max submit retries on 429/503 or transport failure")
		backoff    = flag.Duration("retry-backoff", 100*time.Millisecond, "base submit-retry backoff (doubled per attempt, jittered, capped at 2s)")
		timeout    = flag.Duration("timeout", 60*time.Second, "per-request completion deadline")
		poll       = flag.Duration("poll", 50*time.Millisecond, "status poll interval")
		out        = flag.String("out", "BENCH_service.json", "output file")
		version    = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		telemetry.PrintVersion("sweeploadgen")
		return
	}

	netSizes, err := parseInts(*nets)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweeploadgen: bad -nets: %v\n", err)
		os.Exit(2)
	}
	base := "http://" + strings.TrimPrefix(*addr, "http://")
	client := &http.Client{Timeout: 15 * time.Second}
	if err := waitReady(client, base, 10*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "sweeploadgen:", err)
		os.Exit(1)
	}

	rate := func(elapsed time.Duration) float64 {
		switch *mode {
		case "steady":
			return *startRPS
		case "ramp":
			// Slot i of n runs at start + i*(target-start)/(n-1).
			n := *slots
			if n < 2 {
				return *targetRPS
			}
			i := int(float64(n) * elapsed.Seconds() / duration.Seconds())
			if i >= n {
				i = n - 1
			}
			return *startRPS + float64(i)*(*targetRPS-*startRPS)/float64(n-1)
		case "burst":
			if elapsed%*burstEvery < *burstLen {
				return *burstRPS
			}
			return *startRPS
		default:
			fmt.Fprintf(os.Stderr, "sweeploadgen: unknown -mode %q\n", *mode)
			os.Exit(2)
			return 0
		}
	}

	// The repeat pool: a small set of fixed fingerprints that exercise
	// the cache and singleflight paths.  Fresh requests bump refs past
	// the pool so every one is a new fingerprint.
	pool := make([]service.SweepRequest, 4)
	for i := range pool {
		pool[i] = service.SweepRequest{Arch: *arch, Nets: netSizes, Refs: *refs + i}
	}
	rng := rand.New(rand.NewSource(*seed))
	freshSeq := 0

	var (
		mu       sync.Mutex
		outcomes []outcome
		wg       sync.WaitGroup
	)
	fire := func(req service.SweepRequest, isFresh bool) {
		defer wg.Done()
		o := drive(client, base, req, *timeout, *poll, *retries, *backoff)
		mu.Lock()
		outcomes = append(outcomes, o)
		mu.Unlock()
		_ = isFresh
	}

	// Open-loop token-bucket dispatcher at 10ms granularity: arrivals
	// follow the schedule, independent of service latency.
	start := time.Now()
	tick := time.NewTicker(10 * time.Millisecond)
	tokens := 0.0
	last := start
	requests := 0
	for now := range tick.C {
		elapsed := now.Sub(start)
		if elapsed > *duration {
			break
		}
		tokens += rate(elapsed) * now.Sub(last).Seconds()
		last = now
		for tokens >= 1 {
			tokens--
			requests++
			var req service.SweepRequest
			isFresh := rng.Float64() < *fresh
			if isFresh {
				freshSeq++
				req = service.SweepRequest{Arch: *arch, Nets: netSizes, Refs: *refs + len(pool) + freshSeq}
			} else {
				req = pool[rng.Intn(len(pool))]
			}
			req.Tenant = "tenant-" + strconv.Itoa(rng.Intn(*tenants))
			wg.Add(1)
			go fire(req, isFresh)
		}
	}
	tick.Stop()
	wg.Wait()
	genSecs := time.Since(start).Seconds()

	rec := summarise(outcomes, *mode, genSecs, *startRPS, *targetRPS, *burstRPS, *fresh, *tenants, *refs)
	if b, err := fetch(client, base+"/v1/stats"); err == nil {
		rec.Server = b
		var sv struct {
			Telemetry *telemetry.Snapshot `json:"telemetry"`
		}
		if json.Unmarshal(b, &sv) == nil && sv.Telemetry != nil {
			rec.QueueWaitMS = histLatency(sv.Telemetry.Hist(telemetry.HistQueueWait))
			rec.ExecutionMS = histLatency(sv.Telemetry.Hist(telemetry.HistExecution))
		}
	}

	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweeploadgen:", err)
		os.Exit(1)
	}
	if err := durable.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "sweeploadgen:", err)
		os.Exit(1)
	}
	fmt.Printf("sweeploadgen: %d requests, %d completed (%.1f/s), %d cache hits, %d dedup joins, %d fresh, %d rejected, %d retries; p50=%.0fms p95=%.0fms p99=%.0fms\n",
		rec.Requests, rec.Completed, rec.ThroughputRPS, rec.CacheHits, rec.DedupJoins,
		rec.FreshSimulations, rec.Rejected, rec.RetriesTotal, rec.LatencyMS.P50, rec.LatencyMS.P95, rec.LatencyMS.P99)

	if rec.Lost > 0 || rec.DuplicateResimulations > 0 || rec.Completed == 0 {
		fmt.Fprintf(os.Stderr, "sweeploadgen: contract violated: lost=%d duplicate_resimulations=%d completed=%d\n",
			rec.Lost, rec.DuplicateResimulations, rec.Completed)
		os.Exit(1)
	}
}

// submitRetryCap bounds the exponential submit backoff: past it every
// retry waits roughly the cap, jitter aside.
const submitRetryCap = 2 * time.Second

// retryDelay is the capped exponential submit backoff with jitter:
// base<<attempt up to submitRetryCap, then uniformly jittered over
// [d/2, d] so synchronized clients spread out on retry.
func retryDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = time.Millisecond
	}
	if attempt > 16 {
		attempt = 16
	}
	d := base << uint(attempt)
	if d <= 0 || d > submitRetryCap {
		d = submitRetryCap
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// submitOnce posts one submission and decodes the envelope.  A nil
// error means the server answered with valid JSON; the caller decides
// from the status code whether that answer is terminal.
func submitOnce(client *http.Client, base string, body []byte) (service.SubmitResponse, int, error) {
	var sub service.SubmitResponse
	resp, err := client.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return sub, 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return sub, 0, err
	}
	return sub, resp.StatusCode, nil
}

// drive submits one request and follows it to a terminal state.
// Refused (429/503) and transport-failed submissions are retried up to
// `retries` times with capped exponential backoff: admission pressure
// and daemon restarts are transient by contract, so only an exhausted
// retry budget counts as rejected/lost.
func drive(client *http.Client, base string, req service.SweepRequest, timeout, poll time.Duration, retries int, backoff time.Duration) outcome {
	body, _ := json.Marshal(req)
	t0 := time.Now()
	var o outcome
	var sub service.SubmitResponse
	var code int
	for attempt := 0; ; attempt++ {
		var err error
		sub, code, err = submitOnce(client, base, body)
		if err == nil && code != http.StatusTooManyRequests && code != http.StatusServiceUnavailable {
			break
		}
		if attempt >= retries {
			if err != nil {
				o.lost = true
			} else {
				o.rejected = true
			}
			return o
		}
		o.retries++
		time.Sleep(retryDelay(backoff, attempt))
	}
	o.fp, o.cached, o.deduped = sub.ID, sub.Cached, sub.Deduped
	switch code {
	case http.StatusOK: // cache hit, result inline
		o.latency = time.Since(t0)
		return o
	case http.StatusAccepted:
		o.admitted = !sub.Deduped
	default:
		o.failed = true
		return o
	}
	deadline := t0.Add(timeout)
	for time.Now().Before(deadline) {
		time.Sleep(poll)
		resp, err := client.Get(base + "/v1/sweeps/" + sub.ID)
		if err != nil {
			continue
		}
		code := resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch code {
		case http.StatusOK:
			o.latency = time.Since(t0)
			return o
		case http.StatusConflict:
			o.failed = true
			return o
		}
	}
	o.lost = true
	return o
}

// summarise folds outcomes into the benchmark record.
func summarise(outcomes []outcome, mode string, secs, startRPS, targetRPS, burstRPS, fresh float64, tenants, refs int) benchRecord {
	rec := benchRecord{
		Bench: "sweep_service", Mode: mode, DurationSeconds: round3(secs),
		StartRPS: startRPS, FreshFraction: fresh, Tenants: tenants, Refs: refs,
		Requests: len(outcomes),
	}
	if mode == "ramp" {
		rec.TargetRPS = targetRPS
	}
	if mode == "burst" {
		rec.BurstRPS = burstRPS
	}
	admitted := map[string]int{}
	var lat telemetry.Histogram
	for _, o := range outcomes {
		rec.RetriesTotal += o.retries
		switch {
		case o.rejected:
			rec.Rejected++
		case o.failed:
			rec.Failed++
		case o.lost:
			rec.Lost++
		default:
			rec.Completed++
			lat.ObserveDur(o.latency)
			switch {
			case o.cached:
				rec.CacheHits++
			case o.deduped:
				rec.DedupJoins++
			default:
				rec.FreshSimulations++
				admitted[o.fp]++
			}
		}
	}
	for _, n := range admitted {
		if n > 1 {
			rec.DuplicateResimulations += n - 1
		}
	}
	if rec.Completed > 0 {
		rec.CacheHitRate = round3(float64(rec.CacheHits+rec.DedupJoins) / float64(rec.Completed))
		rec.ThroughputRPS = round3(float64(rec.Completed) / secs)
		if ls := histLatency(lat.Snap()); ls != nil {
			rec.LatencyMS = *ls
		}
	}
	return rec
}

// histLatency folds a latency histogram snapshot into the record's
// millisecond stats; nil when the histogram is empty.
func histLatency(hs *telemetry.HistSnap) *latencyStats {
	if hs == nil || hs.Count == 0 {
		return nil
	}
	return &latencyStats{
		P50:  round3(hs.Quantile(0.50) / 1e6),
		P95:  round3(hs.Quantile(0.95) / 1e6),
		P99:  round3(hs.Quantile(0.99) / 1e6),
		Mean: round3(hs.MeanNanos() / 1e6),
		Max:  round3(float64(hs.MaxNanos) / 1e6),
	}
}

// waitReady polls the health endpoint until the daemon answers.
func waitReady(client *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("sweepd at %s not ready after %v", base, timeout)
}

// fetch GETs a URL and returns its body.
func fetch(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
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

func round3(x float64) float64 { return float64(int64(x*1000+0.5)) / 1000 }
