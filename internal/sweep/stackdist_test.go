// Sweep-level gate for the StackDist engine: byte-for-byte equivalence
// with the Reference and MultiPass engines over the Table 7 grid (warm
// and cold architectures), fallback for refused configurations, shard
// perturbation-freeness, telemetry exactness, and exactly-once failure
// attribution when a set partition of a stack group dies.
package sweep

import (
	"bytes"
	"reflect"
	"testing"

	"subcache/internal/cache"
	"subcache/internal/synth"
	"subcache/internal/telemetry"
	"subcache/internal/trace"
)

// TestStackDistProducesIdenticalRuns: the StackDist engine must
// reproduce both other engines' per-workload runs exactly -- every
// counter and every derived ratio -- over a full Table 7 grid, in one
// trace pass per workload.  Z8000 exercises the warm-start path (which
// pins stack groups to a single partition).
func TestStackDistProducesIdenticalRuns(t *testing.T) {
	for _, arch := range []synth.Arch{synth.PDP11, synth.Z8000} {
		pts := Grid([]int{64, 256}, arch.WordSize())
		base := Request{Arch: arch, Points: pts, Refs: 12000}

		byEngine := map[Engine]*Result{}
		for _, eng := range []Engine{Reference, MultiPass, StackDist} {
			req := base
			req.Engine = eng
			res, err := Run(req)
			if err != nil {
				t.Fatalf("%v/%v: %v", arch, eng, err)
			}
			byEngine[eng] = res
		}

		workloads := len(synth.Workloads(arch))
		if got := byEngine[StackDist].TracePasses; got != workloads {
			t.Errorf("%v: stackdist TracePasses = %d, want %d (one pass per workload)",
				arch, got, workloads)
		}
		for _, eng := range []Engine{Reference, MultiPass} {
			want := byEngine[eng]
			got := byEngine[StackDist]
			for _, p := range pts {
				if !reflect.DeepEqual(got.Runs[p], want.Runs[p]) {
					t.Errorf("%v %v: stackdist runs differ from %v\n got:  %v\n want: %v",
						arch, p, eng, got.Runs[p], want.Runs[p])
				}
				if got.Summaries[p] != want.Summaries[p] {
					t.Errorf("%v %v: stackdist summaries differ from %v", arch, p, eng)
				}
			}
		}
	}
}

// TestStackDistFallback: points stack analysis refuses (here FIFO
// replacement via Override) must fall back to multipass families or
// reference caches inside the same single pass and still match a
// Reference-engine sweep bit for bit.
func TestStackDistFallback(t *testing.T) {
	pts := []Point{
		{Net: 256, Block: 16, Sub: 8},
		{Net: 256, Block: 16, Sub: 2},
		{Net: 64, Block: 8, Sub: 4},
	}
	for name, override := range map[string]func(*cache.Config){
		"fifo":     func(c *cache.Config) { c.Replacement = cache.FIFO },
		"prefetch": func(c *cache.Config) { c.PrefetchOBL = true },
	} {
		want, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 8000,
			Workloads: []string{"ED"}, Override: override, Engine: Reference})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 8000,
			Workloads: []string{"ED"}, Override: override, Engine: StackDist})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			if !reflect.DeepEqual(got.Runs[p], want.Runs[p]) {
				t.Errorf("%s %v: fallback runs differ\n got:  %v\n want: %v",
					name, p, got.Runs[p], want.Runs[p])
			}
		}
		if got.TracePasses != 1 {
			t.Errorf("%s: fallback points should ride the single pass: TracePasses = %d",
				name, got.TracePasses)
		}
	}
}

// TestStackDistShardInvariance: the shard count selects how stack
// groups fan out into set partitions, so it must never perturb a
// single counter -- the sweep-level half of the engine's partition
// invariance property.
func TestStackDistShardInvariance(t *testing.T) {
	pts := Grid([]int{64, 256}, 2)
	var base *Result
	for _, shards := range []int{0, 1, 2, 3, 8} {
		res, err := Run(Request{Arch: synth.PDP11, Points: pts, Refs: 10000,
			Workloads: []string{"ED", "ROFF"}, Engine: StackDist, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if base == nil {
			base = res
			continue
		}
		for _, p := range pts {
			if !reflect.DeepEqual(res.Runs[p], base.Runs[p]) {
				t.Errorf("shards=%d perturbs runs at %v", shards, p)
			}
		}
	}
}

// TestStackDistTelemetryExact: identical instrumented StackDist sweeps
// count exactly the same work, the counters obey the run's structure
// (refs_simulated a whole multiple of refs_read, stack units flushed),
// and the emitted stream is schema-valid with no error events.
func TestStackDistTelemetryExact(t *testing.T) {
	request := func() Request {
		return Request{
			Arch:   synth.PDP11,
			Points: Grid([]int{64, 256}, 2),
			Refs:   2*trace.ChunkRefs + 100,
			Engine: StackDist,
			Shards: 4,
		}
	}
	run := func() (*telemetry.Snapshot, *bytes.Buffer) {
		var buf bytes.Buffer
		rec := telemetry.NewRun(telemetry.Options{Sink: telemetry.NewJSONLSink(&buf)})
		req := request()
		req.Recorder = rec
		if _, err := Run(req); err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		return rec.Snapshot(), &buf
	}

	s1, buf1 := run()
	s2, _ := run()
	if !reflect.DeepEqual(s1.Counters, s2.Counters) {
		t.Errorf("counters differ across identical runs\n run 1: %v\n run 2: %v", s1.Counters, s2.Counters)
	}

	req := request()
	workloads := len(synth.Workloads(req.Arch))
	planned := uint64(len(req.Points) * workloads)
	if got := s1.Counter(telemetry.PointsCompleted); got != planned {
		t.Errorf("points_completed = %d, want %d", got, planned)
	}
	if s1.Counter(telemetry.PointsFailed) != 0 {
		t.Errorf("clean run counted failures: %v", s1.Counters)
	}
	refsRead := s1.Counter(telemetry.RefsRead)
	refsSim := s1.Counter(telemetry.RefsSimulated)
	if refsRead == 0 || refsSim == 0 || refsSim%refsRead != 0 {
		t.Errorf("refs_simulated %d not a multiple of refs_read %d", refsSim, refsRead)
	}
	if s1.Counter(telemetry.StackUnitsFlushed) == 0 {
		t.Error("stackdist sweep flushed no stack units")
	}
	// The whole default grid is LRU demand/load-forward write-allocate,
	// all of it stack-supported: nothing should fall back to families.
	if got := s1.Counter(telemetry.FamiliesFlushed); got != 0 {
		t.Errorf("families_flushed = %d, want 0 (no fallback configs)", got)
	}

	st, err := telemetry.ValidateStream(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatalf("emitted stream invalid: %v", err)
	}
	if got := st.ByType[telemetry.EventPointDone]; got != int(planned) {
		t.Errorf("point-done events = %d, want %d", got, planned)
	}
	if st.ByType[telemetry.EventErrorAttributed] != 0 {
		t.Errorf("clean run emitted %d error events", st.ByType[telemetry.EventErrorAttributed])
	}
}

// TestStackDistGroupFailureAttribution: a panic inside one set
// partition of a stack group poisons the whole group -- a partial
// merge would silently undercount -- and every point of the group is
// attributed exactly once, mirrored by exactly one error-attributed
// event per PointError, while every other point completes bit-identical
// to an undisturbed sweep.
func TestStackDistGroupFailureAttribution(t *testing.T) {
	// Two stack groups: block 16 and block 8.  The injected fault kills
	// the block-16 group; the block-8 group must be untouched.
	pts := []Point{
		{Net: 256, Block: 16, Sub: 8},
		{Net: 256, Block: 16, Sub: 2},
		{Net: 1024, Block: 16, Sub: 8},
		{Net: 256, Block: 8, Sub: 4},
		{Net: 1024, Block: 8, Sub: 4},
	}
	target := pts[0]
	base := Request{Arch: synth.PDP11, Points: pts, Refs: 10000,
		Workloads: []string{"ED"}, Engine: StackDist, Shards: 4}

	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	sink := &captureSink{}
	rec := telemetry.NewRun(telemetry.Options{Sink: sink})
	req := base
	req.ContinueOnError = true
	req.Recorder = rec
	req.Hooks = &Hooks{BeforeUnit: func(workload string, shard int, points []Point, chunk int) {
		if chunk != 0 {
			return
		}
		for _, p := range points {
			if p == target {
				panic("injected stack-partition fault")
			}
		}
	}}
	res, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	rec.Close()

	lost := map[Point]bool{}
	for _, pe := range res.Errors {
		if pe.WorkloadScope() {
			t.Fatalf("unit fault escalated to workload scope: %v", pe)
		}
		if lost[pe.Point] {
			t.Errorf("point %v attributed more than once", pe.Point)
		}
		lost[pe.Point] = true
	}
	for _, p := range pts {
		wantLost := p.Block == 16 // the target's stack group
		if lost[p] != wantLost {
			t.Errorf("%v: lost=%v, want %v", p, lost[p], wantLost)
		}
		if _, ok := res.Runs[p]; ok == wantLost {
			t.Errorf("%v: run present=%v, want %v", p, ok, !wantLost)
		}
		if !wantLost && !reflect.DeepEqual(res.Runs[p], clean.Runs[p]) {
			t.Errorf("%v: surviving runs differ from undisturbed sweep", p)
		}
	}

	events := sink.byType(telemetry.EventErrorAttributed)
	if len(events) != len(res.Errors) {
		t.Errorf("error-attributed events = %d, want one per PointError = %d",
			len(events), len(res.Errors))
	}
	s := rec.Snapshot()
	if got := s.Counter(telemetry.PointsFailed); got != uint64(len(res.Errors)) {
		t.Errorf("points_failed = %d, want %d", got, len(res.Errors))
	}
}
