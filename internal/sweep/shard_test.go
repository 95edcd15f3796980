package sweep

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"subcache/internal/cache"
	"subcache/internal/metrics"
	"subcache/internal/synth"
	"subcache/internal/trace"
)

// TestShardedDifferential: the chunk-broadcast executor must reproduce
// per-(workload, point) RunOne simulation bit for bit -- every run and
// every summary -- for every engine at every shard count, because
// sharding partitions configurations, never the trace.  At 32 shards
// families split and stack groups fan out into set partitions, so the
// flush loop's merge of a group's partitions is checked too.  RunOne streams
// cache.Run straight from the generator and shares no executor code,
// so the baseline is independent of the path under test.
func TestShardedDifferential(t *testing.T) {
	pts := Grid([]int{64, 256}, 2)
	base := Request{Arch: synth.PDP11, Points: pts, Refs: 20000}
	profiles := synth.Workloads(synth.PDP11)
	workloads := len(profiles)

	wantRuns := make(map[Point][]metrics.Run, len(pts))
	for _, p := range pts {
		for _, prof := range profiles {
			run, err := RunOne(prof, pointConfig(p, base), base.Refs)
			if err != nil {
				t.Fatal(err)
			}
			wantRuns[p] = append(wantRuns[p], run)
		}
	}

	cases := []struct {
		name   string
		engine Engine
		shards int
		passes int
	}{
		{"reference/auto", Reference, 0, len(pts) * workloads},
		{"reference/shards=1", Reference, 1, len(pts) * workloads},
		{"reference/shards=2", Reference, 2, len(pts) * workloads},
		{"reference/shards=3", Reference, 3, len(pts) * workloads},
		{"reference/shards=ncpu", Reference, runtime.NumCPU(), len(pts) * workloads},
		{"reference/shards=32", Reference, 32, len(pts) * workloads},
		{"multipass/auto", MultiPass, 0, workloads},
		{"multipass/shards=1", MultiPass, 1, workloads},
		{"multipass/shards=2", MultiPass, 2, workloads},
		{"multipass/shards=3", MultiPass, 3, workloads},
		{"multipass/shards=ncpu", MultiPass, runtime.NumCPU(), workloads},
		{"multipass/shards=32", MultiPass, 32, workloads},
		{"stackdist/auto", StackDist, 0, workloads},
		{"stackdist/shards=1", StackDist, 1, workloads},
		{"stackdist/shards=2", StackDist, 2, workloads},
		{"stackdist/shards=3", StackDist, 3, workloads},
		{"stackdist/shards=ncpu", StackDist, runtime.NumCPU(), workloads},
		{"stackdist/shards=32", StackDist, 32, workloads},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := base
			req.Engine = tc.engine
			req.Shards = tc.shards
			got, err := Run(req)
			if err != nil {
				t.Fatal(err)
			}
			if got.TracePasses != tc.passes {
				t.Errorf("TracePasses = %d, want %d", got.TracePasses, tc.passes)
			}
			for _, p := range pts {
				if !reflect.DeepEqual(got.Runs[p], wantRuns[p]) {
					t.Fatalf("%v: runs differ from per-point RunOne\n got:  %v\n want: %v",
						p, got.Runs[p], wantRuns[p])
				}
				if got.Summaries[p] != metrics.Average(wantRuns[p]) {
					t.Errorf("%v: summaries differ", p)
				}
			}
		})
	}
}

// TestShardedMixedPolicies: an Override that rearranges policies
// (Random replacement, copy-back) must survive sharding unchanged --
// Random replacement in particular proves each family's victim stream
// is private to the shard that owns it.
func TestShardedMixedPolicies(t *testing.T) {
	pts := []Point{
		{Net: 64, Block: 8, Sub: 2},
		{Net: 64, Block: 8, Sub: 4},
		{Net: 64, Block: 8, Sub: 2, Fetch: cache.LoadForward},
		{Net: 256, Block: 16, Sub: 8},
	}
	override := func(c *cache.Config) {
		c.Replacement = cache.Random
		c.RandomSeed = 7
		c.CopyBack = true
	}
	want, err := Run(Request{Arch: synth.Z8000, Points: pts, Refs: 8000,
		Override: override, Engine: Reference})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(Request{Arch: synth.Z8000, Points: pts, Refs: 8000,
		Override: override, Engine: MultiPass, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if !reflect.DeepEqual(got.Runs[p], want.Runs[p]) {
			t.Errorf("%v: sharded runs differ\n got:  %v\n want: %v", p, got.Runs[p], want.Runs[p])
		}
	}
}

// TestShardedAllFallback: configurations the multipass kernel cannot
// host (OBL prefetch) must ride the sharded pass on reference
// simulators and still match.
func TestShardedAllFallback(t *testing.T) {
	pts := []Point{
		{Net: 256, Block: 16, Sub: 8},
		{Net: 256, Block: 16, Sub: 2},
		{Net: 64, Block: 8, Sub: 4},
	}
	override := func(c *cache.Config) { c.PrefetchOBL = true }
	want, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 10000,
		Workloads: []string{"ED"}, Override: override, Engine: Reference})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 10000,
		Workloads: []string{"ED"}, Override: override, Engine: MultiPass, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if !reflect.DeepEqual(got.Runs[p], want.Runs[p]) {
			t.Errorf("%v: fallback runs differ", p)
		}
	}
	if got.TracePasses != 1 {
		t.Errorf("fallback points should share the single sharded pass: TracePasses = %d", got.TracePasses)
	}
}

// TestRunConfigsDifferential: the exported single-workload entry point
// must match per-configuration RunOne simulation exactly, at several
// shard counts.
func TestRunConfigsDifferential(t *testing.T) {
	prof, ok := synth.ProfileByName("ED")
	if !ok {
		t.Fatal("workload ED missing")
	}
	var cfgs []cache.Config
	for _, p := range []Point{
		{Net: 256, Block: 16, Sub: 8},
		{Net: 256, Block: 16, Sub: 4},
		{Net: 256, Block: 16, Sub: 4, Fetch: cache.LoadForward},
		{Net: 64, Block: 8, Sub: 2},
	} {
		cfgs = append(cfgs, p.Config(synth.PDP11))
	}
	// One config the kernel cannot host, to exercise the fallback path.
	obl := cfgs[3]
	obl.PrefetchOBL = true
	cfgs = append(cfgs, obl)

	const refs = 10000
	for _, shards := range []int{0, 1, 2, len(cfgs) + 3} {
		runs, err := RunConfigs(context.Background(), prof, cfgs, refs, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(runs) != len(cfgs) {
			t.Fatalf("shards=%d: got %d runs, want %d", shards, len(runs), len(cfgs))
		}
		for i, cfg := range cfgs {
			want, err := RunOne(prof, cfg, refs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(runs[i], want) {
				t.Errorf("shards=%d cfgs[%d]: sharded run differs\n got:  %v\n want: %v",
					shards, i, runs[i], want)
			}
		}
	}
}

// TestRunConfigsValidation: the entry point rejects empty inputs and
// mixed word sizes (the configurations share one word-split trace).
func TestRunConfigsValidation(t *testing.T) {
	prof, _ := synth.ProfileByName("ED")
	cfg := Point{Net: 64, Block: 8, Sub: 2}.Config(synth.PDP11)

	if _, err := RunConfigs(context.Background(), prof, nil, 1000, 1); err == nil {
		t.Error("accepted empty configuration list")
	}
	if _, err := RunConfigs(context.Background(), prof, []cache.Config{cfg}, 0, 1); err == nil {
		t.Error("accepted non-positive trace length")
	}
	wide := cfg
	wide.WordSize = 4
	wide.SubBlockSize = 4
	_, err := RunConfigs(context.Background(), prof, []cache.Config{cfg, wide}, 1000, 1)
	if err == nil || !strings.Contains(err.Error(), "WordSize") {
		t.Errorf("mixed word sizes: got %v, want a WordSize error", err)
	}
}

// TestRunContextCancelled: a pre-cancelled context aborts every engine
// and shard variant with context.Canceled, not a partial result.
func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := []Point{{Net: 64, Block: 8, Sub: 4}}
	for _, tc := range []struct {
		name   string
		engine Engine
		shards int
	}{
		{"reference/auto", Reference, 0},
		{"reference/sharded", Reference, 2},
		{"multipass/one-pass", MultiPass, 1},
		{"multipass/sharded", MultiPass, 2},
		{"stackdist/one-pass", StackDist, 1},
		{"stackdist/sharded", StackDist, 2},
	} {
		res, err := RunContext(ctx, Request{Arch: synth.PDP11, Points: pts,
			Refs: 5000, Engine: tc.engine, Shards: tc.shards})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.name, err)
		}
		if res != nil {
			t.Errorf("%s: got a result from a cancelled sweep", tc.name)
		}
	}
}

// TestShardedErrorPropagation: a configuration error inside one shard
// surfaces from the sweep, named after its point, for every engine --
// never masked by the cancellations it triggers in sibling workloads.
func TestShardedErrorPropagation(t *testing.T) {
	pts := []Point{{Net: 64, Block: 8, Sub: 2}, {Net: 64, Block: 8, Sub: 4}}
	for _, eng := range []Engine{Reference, MultiPass, StackDist} {
		_, err := Run(Request{
			Arch: synth.PDP11, Points: pts, Refs: 1000, Engine: eng, Shards: 2,
			Override: func(c *cache.Config) { c.Assoc = 999 },
		})
		if err == nil {
			t.Errorf("%v: sharded sweep accepted an invalid config", eng)
			continue
		}
		if errors.Is(err, context.Canceled) {
			t.Errorf("%v: real failure masked by a cancellation: %v", eng, err)
		}
	}
}

// TestReferenceShortCircuit: configurations are derived and their
// units built before the trace source exists, so under fail-fast a
// construction failure aborts the workload without generating a single
// reference -- the WrapSource hook, called once per streamed workload,
// must never run.
func TestReferenceShortCircuit(t *testing.T) {
	var wraps atomic.Int32
	pts := make([]Point, 40)
	for i := range pts {
		pts[i] = Point{Net: 64, Block: 8, Sub: 2}
	}
	_, err := Run(Request{
		Arch: synth.PDP11, Points: pts, Refs: 2000,
		Workloads: []string{"ED"}, Engine: Reference, Parallelism: 1,
		Override: func(c *cache.Config) { c.Assoc = 999 },
		Hooks: &Hooks{WrapSource: func(_ string, src trace.Source) trace.Source {
			wraps.Add(1)
			return src
		}},
	})
	if err == nil {
		t.Fatal("sweep accepted an invalid config")
	}
	if n := wraps.Load(); n != 0 {
		t.Errorf("first error did not short-circuit: the trace source was built %d times", n)
	}
}

// TestShardedParallelismInvariance: neither the parallelism budget nor
// the shard count may change any counter.
func TestShardedParallelismInvariance(t *testing.T) {
	pts := []Point{{Net: 64, Block: 8, Sub: 4}, {Net: 256, Block: 8, Sub: 4}}
	var results []*Result
	for _, tc := range []struct{ par, shards int }{{1, 1}, {8, 2}, {2, 8}} {
		res, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 5000,
			Parallelism: tc.par, Shards: tc.shards, Engine: MultiPass})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for _, p := range pts {
		for i := 1; i < len(results); i++ {
			if !reflect.DeepEqual(results[0].Runs[p], results[i].Runs[p]) {
				t.Errorf("parallelism/shard budget changed results at %v", p)
			}
		}
	}
}

// TestShardRingSizedFromRunnableShards: the buffers a pass holds scale
// with the shards that can run at once, not with the requested count.
// A sweep of the 129-point seven-net grid at Shards: 1024 plans up to
// 129 shards; with two CPUs only two run at a time, so the pass needs a
// handful of 128 KB chunk buffers and 64 KB pack buffers, not one set
// per planned shard -- for every engine.
func TestShardRingSizedFromRunnableShards(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, eng := range allEngines {
		t.Run(eng.String(), func(t *testing.T) {
			req := Request{
				Arch:      synth.PDP11,
				Points:    Grid([]int{32, 64, 128, 256, 512, 1024, 2048}, 2),
				Refs:      20000,
				Workloads: []string{synth.Workloads(synth.PDP11)[0].Name},
				Engine:    eng,
				Shards:    MaxShards,
			}
			if len(req.Points) != 129 {
				t.Fatalf("grid has %d points, want 129", len(req.Points))
			}
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Run(req)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Summaries) != len(req.Points) {
				t.Fatalf("%d of %d points done", len(res.Summaries), len(req.Points))
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("sweep allocated %.1f MB", float64(alloc)/(1<<20))
			if alloc >= 8<<20 {
				t.Errorf("sweep allocated %.1f MB, want < 8 MB", float64(alloc)/(1<<20))
			}
		})
	}
}
