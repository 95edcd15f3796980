// Sharded intra-workload execution: one workload's configurations are
// partitioned across shard workers, all fed from a single trace
// generation by broadcasting fixed-size chunks of the word stream
// through a ring of reusable buffers.
//
// This is the one execution path for every engine.  Sharding is across
// configurations, never across the trace: every family, stack unit and
// reference cache consumes the complete ordered access stream (a stack
// unit's set partition filters it, never reorders it), and each one is
// owned by exactly one worker, so per-point counters are bit-identical
// at every shard count and across engines -- only the scheduling
// changes.  The trace is never materialised; memory stays at
// O(buffers), not O(refs).
//
// Fault tolerance: each shard's simulation units (see fault.go) fail
// independently.  A panicking unit is retired with its configurations
// attributed; the broadcast keeps flowing to the rest, so survivors
// stay bit-identical.  A trace-stream failure is workload-scope -- it
// invalidates every unit's counters, so no partial runs are reported.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"subcache/internal/addr"
	"subcache/internal/cache"
	"subcache/internal/metrics"
	"subcache/internal/synth"
	"subcache/internal/telemetry"
	"subcache/internal/trace"
)

// chunkRefs is the broadcast granularity, shared with every other
// batched access path in the harness (see trace.ChunkRefs for the
// sizing rationale).
const chunkRefs = trace.ChunkRefs

// chunkPool recycles the chunk ring's chunkRefs-reference buffers
// (128 KB each, 2*min(shards, GOMAXPROCS)+2 per pass) across passes: a
// sweep runs one pass per workload, and a service job's passes are
// short, so without reuse a pass would allocate its whole ring to
// stream a few chunks.  packPool holds the chunkRefs-word buffers (64 KB
// each) a shard worker packs one chunk into; a worker holds one only
// while it simulates that chunk, so at most one exists per worker that
// is running.
var (
	chunkPool = sync.Pool{New: func() any { b := make([]trace.Ref, chunkRefs); return &b }}
	packPool  = sync.Pool{New: func() any { b := make([]uint64, chunkRefs); return &b }}
)

// chunk is one slice of the word trace in flight to every shard.  left
// counts shards that have yet to finish it; the last one returns the
// backing buffer to the free ring.
type chunk struct {
	refs []trace.Ref
	left atomic.Int32
}

// shardRunner is one worker's owned simulation state: the units its
// plan assigned, plus its inbound chunk queue.  Only the owning
// goroutine touches units/live/chunk and the telemetry fields.
type shardRunner struct {
	shard int
	units []*simUnit
	live  int // units not yet dead
	chunk int // next chunk index (identical across shards)
	in    chan *chunk
	pack  bool // some unit reads packed chunks (every unit but a reference cache)

	// Telemetry, accumulated locally (single-writer) and published
	// once at end of pass: references fed to the shard, references
	// consumed by its live units, wall time inside processChunk, and
	// the planner's cost estimate for its units.
	refsFed uint64
	simRefs uint64
	busy    time.Duration
	estCost int
}

// RunConfigs evaluates every configuration against one workload in a
// single chunk-streamed trace pass, sharded across shard workers
// (0 or less picks GOMAXPROCS).  Configurations that share tag-array
// dynamics are grouped into multipass families within each shard; the
// rest ride the same pass on reference simulators.  The returned runs
// align with cfgs and are bit-identical to per-configuration
// simulation.  All configurations must agree on WordSize, since they
// consume one shared word-split trace.  Failures are fail-fast: the
// first failing configuration (bad config or recovered panic) aborts
// the pass and is returned, named by its index.
func RunConfigs(ctx context.Context, prof synth.Profile, cfgs []cache.Config, refs, shards int) ([]metrics.Run, error) {
	if refs <= 0 {
		return nil, fmt.Errorf("sweep: non-positive trace length %d", refs)
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sweep: no configurations")
	}
	ws := cfgs[0].WordSize
	if err := checkWordSize(cfgs, ws); err != nil {
		return nil, err
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	runs, ok, failed, err := runConfigsSharded(ctx, prof, cfgs, nil, refs, ws, shards, MultiPass, false, nil, telemetry.Nop)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		return nil, fmt.Errorf("sweep: %s trace: %w", prof.Name, err)
	}
	if len(failed) > 0 {
		f := failed[0]
		return nil, fmt.Errorf("sweep: cfgs[%d]: %w", f.idxs[0], f.cause)
	}
	for i := range ok {
		if !ok[i] {
			return nil, fmt.Errorf("sweep: cfgs[%d]: no result", i)
		}
	}
	return runs, nil
}

// runConfigsSharded is the chunk-broadcast executor.  eng selects how
// configurations are planned into units (see planShards); points
// (optional, aligned with cfgs) gives failures their grid-point
// attribution.
//
// The return contract implements the sweep's failure granularity:
//
//   - err non-nil is workload scope: the trace stream failed (raw cause,
//     unwrapped) or ctx was cancelled.  Every unit's counters cover a
//     truncated stream, so runs is nil -- nothing is half-counted.
//   - failed lists units that died (construction error, recovered panic
//     from the unit, its hooks, or its whole shard).  Under fail-fast
//     (continueOnError false) the first failure stops the pass and runs
//     is nil; under continueOnError survivors complete the full stream
//     and ok[i] marks which runs are valid.  A dead unit poisons its
//     whole group -- sibling stack partitions cover disjoint set
//     spaces, so a group with a lost partition has no complete point --
//     and the group's points are attributed exactly once.
func runConfigsSharded(ctx context.Context, prof synth.Profile, cfgs []cache.Config, points []Point, refs, wordSize, shards int, eng Engine, continueOnError bool, hooks *Hooks, rec telemetry.Recorder) (runs []metrics.Run, ok []bool, failed []unitFailure, err error) {
	enabled := rec.Enabled()
	lists := planShards(eng, cfgs, shards)

	// The ring holds two chunks per shard that can run at once, plus
	// slack: more shards than GOMAXPROCS only take turns, so sizing it
	// from the requested count would pin buffers no worker can use.
	nbuf := 2*min(len(lists), runtime.GOMAXPROCS(0)) + 2
	runners := make([]*shardRunner, len(lists))
	total := 0
	for si, units := range lists {
		rn := &shardRunner{shard: si, in: make(chan *chunk, nbuf)}
		for _, u := range units {
			rn.estCost += u.cost()
			if berr := u.build(cfgs, points); berr != nil {
				failed = append(failed, unitFailure{idxs: u.idxs, shard: si, gid: u.gid, cause: berr})
				continue
			}
			rn.units = append(rn.units, u)
			rn.pack = rn.pack || u.kind != referenceUnit
		}
		rn.live = len(rn.units)
		runners[si] = rn
		total += rn.live
	}
	if len(failed) > 0 && !continueOnError {
		return nil, nil, failed[:1], nil
	}
	if total == 0 {
		return make([]metrics.Run, len(cfgs)), make([]bool, len(cfgs)), dedupGroupFailures(failed), nil
	}
	// Some unit was built, so wordSize passed validation.
	shift := addr.Log2(uint64(wordSize))

	src, err := synth.NewWordSource(prof, refs, wordSize)
	if err != nil {
		return nil, nil, nil, err
	}
	wrapped := hooks.wrapSource(prof.Name, src)

	// ictx governs the pass internally: it is cancelled by the caller's
	// ctx, by the first failure under fail-fast, or when every unit is
	// dead and streaming the rest of the trace would be wasted work.
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	var live atomic.Int64
	live.Store(int64(total))
	var mu sync.Mutex // guards failed after the workers start
	fail := func(f unitFailure, killed int) {
		mu.Lock()
		failed = append(failed, f)
		mu.Unlock()
		if !continueOnError || live.Add(-int64(killed)) == 0 {
			cancel()
		}
	}

	// The free ring: every chunk buffer in existence.  At most nbuf
	// chunks are ever in flight, so the per-shard queues (capacity
	// nbuf) never block the producer -- backpressure comes solely from
	// an empty ring, i.e. from the slowest shard.
	free := make(chan []trace.Ref, nbuf)
	for i := 0; i < nbuf; i++ {
		free <- *chunkPool.Get().(*[]trace.Ref)
	}

	var produceErr error
	var wg sync.WaitGroup
	wg.Add(1)
	parentSpan := telemetry.SpanFromContext(ctx)
	go func() {
		defer wg.Done()
		defer func() {
			for _, rn := range runners {
				close(rn.in)
			}
		}()
		psp := telemetry.StartSpan(rec, telemetry.Span{Name: "produce", Parent: parentSpan, Workload: prof.Name})
		defer psp.End()
		// Producer-side stage accounting, at chunk granularity: time
		// decoding the stream is trace-read; time waiting for a free
		// buffer (backpressure from the slowest shard) plus time
		// handing chunks to shard queues is broadcast.
		var readTime, castTime time.Duration
		if enabled {
			defer func() {
				rec.Observe(telemetry.StageTraceRead, readTime)
				rec.Observe(telemetry.StageBroadcast, castTime)
				if bc, ok := wrapped.(trace.ByteCounter); ok {
					rec.Add(telemetry.BytesRead, bc.Bytes())
				}
			}()
		}
		// A panicking trace source (or source wrapper) is recovered
		// into a workload-scope error, like any other stream failure.
		perr := safeCall(func() {
			var t0 time.Time
			for {
				var buf []trace.Ref
				if enabled {
					t0 = time.Now()
				}
				select {
				case buf = <-free:
				case <-ictx.Done():
					return
				}
				if enabled {
					now := time.Now()
					castTime += now.Sub(t0)
					t0 = now
				}
				n, rerr := trace.ReadChunk(wrapped, buf[:chunkRefs])
				if enabled {
					readTime += time.Since(t0)
				}
				if n > 0 {
					if enabled {
						rec.Add(telemetry.RefsRead, uint64(n))
						rec.SetGauge(telemetry.FreeRingOccupancy, int64(len(free)))
						t0 = time.Now()
					}
					ck := &chunk{refs: buf[:n]}
					ck.left.Store(int32(len(runners)))
					for _, rn := range runners {
						select {
						case rn.in <- ck:
						case <-ictx.Done():
							return
						}
					}
					if enabled {
						castTime += time.Since(t0)
						rec.Add(telemetry.ChunksBroadcast, 1)
					}
				}
				if rerr != nil {
					if rerr != io.EOF {
						produceErr = rerr
					}
					return
				}
			}
		})
		if perr != nil {
			produceErr = perr
		}
	}()

	for _, rn := range runners {
		wg.Add(1)
		go func(rn *shardRunner) {
			defer wg.Done()
			ssp := telemetry.StartSpan(rec, telemetry.Span{
				Name: "shard", Parent: parentSpan, Workload: prof.Name,
				Detail: fmt.Sprintf("%d", rn.shard),
			})
			defer ssp.End()
			for ck := range rn.in {
				// On cancellation keep draining (the producer may have
				// broadcast chunks already) but stop simulating.
				if ictx.Err() == nil && rn.live > 0 {
					if enabled {
						t0 := time.Now()
						rn.processChunk(ck.refs, shift, prof.Name, hooks, fail)
						rn.busy += time.Since(t0)
						rn.refsFed += uint64(len(ck.refs))
					} else {
						rn.processChunk(ck.refs, shift, prof.Name, hooks, fail)
					}
				}
				if ck.left.Add(-1) == 0 {
					free <- ck.refs[:chunkRefs]
				}
			}
		}(rn)
	}
	wg.Wait()
	// The pass is over: recycle every buffer back in the ring.  A chunk
	// abandoned mid-broadcast by a cancelled pass never returns to it
	// and is left to the collector.
	for len(free) > 0 {
		b := <-free
		chunkPool.Put(&b)
	}

	// Publish per-shard telemetry: the aggregates, the simulate-stage
	// time, and one shard-stat event per worker.  Emitted even for
	// failed or cancelled passes -- a stalled shard is exactly what an
	// observer wants to see attributed.
	if enabled {
		for _, rn := range runners {
			rec.ShardObserve(rn.shard, rn.refsFed, rn.busy)
			rec.Observe(telemetry.StageSimulate, rn.busy)
			rec.Add(telemetry.RefsSimulated, rn.simRefs)
			lanes := 0
			for _, u := range rn.units {
				lanes += len(u.idxs)
			}
			rec.Emit(&telemetry.Event{Type: telemetry.EventShardStat, ShardStat: &telemetry.ShardStat{
				Workload: prof.Name,
				Shard:    rn.shard,
				Units:    len(rn.units),
				Lanes:    lanes,
				EstCost:  rn.estCost,
				Refs:     rn.refsFed,
				BusyMS:   float64(rn.busy) / 1e6,
			}})
		}
	}

	if produceErr != nil {
		return nil, nil, nil, produceErr
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, nil, nil, cerr
	}
	if len(failed) > 0 && !continueOnError {
		mu.Lock()
		first := failed[:1]
		mu.Unlock()
		return nil, nil, first, nil
	}

	var flushStart time.Time
	if enabled {
		flushStart = time.Now()
	}
	fsp := telemetry.StartSpan(rec, telemetry.Span{Name: "flush", Parent: parentSpan, Workload: prof.Name})
	defer fsp.End()
	// Every unit is a partition of its group: a family or reference
	// cache is the only partition of its own group, and the set
	// partitions of a stack group hold disjoint slices of each of its
	// configurations' counters.  Every flushed counter is a
	// per-partition linear sum, so adding the partitions' statistics
	// reconstructs the whole-stream statistics exactly.  A group with
	// any dead partition is poisoned -- a partial merge would silently
	// undercount -- and its points are attributed through the recorded
	// failure instead.
	deadG := make(map[int]bool)
	for _, f := range failed {
		deadG[f.gid] = true
	}
	type group struct {
		first *simUnit
		stats []cache.Stats
	}
	groups := make(map[int]*group)
	var families, stackUnits uint64
	for _, rn := range runners {
		for _, u := range rn.units {
			if u.dead || deadG[u.gid] {
				continue
			}
			if uerr := safeCall(u.k.FlushUsage); uerr != nil {
				failed = append(failed, unitFailure{idxs: u.idxs, shard: rn.shard, gid: u.gid, cause: uerr})
				deadG[u.gid] = true
				if !continueOnError {
					return nil, nil, failed[len(failed)-1:], nil
				}
				continue
			}
			switch u.kind {
			case familyUnit:
				families++
			case stackUnit:
				stackUnits++
			}
			g := groups[u.gid]
			if g == nil {
				g = &group{first: u, stats: make([]cache.Stats, len(u.idxs))}
				groups[u.gid] = g
			}
			for j := range u.idxs {
				g.stats[j].Add(u.k.Stats(j))
			}
		}
	}
	runs = make([]metrics.Run, len(cfgs))
	ok = make([]bool, len(cfgs))
	for gid, g := range groups {
		if deadG[gid] {
			continue
		}
		for j, k := range g.first.idxs {
			runs[k] = metrics.NewRun(prof.Name, g.first.k.Config(j), &g.stats[j])
			ok[k] = true
		}
	}

	if enabled {
		rec.Observe(telemetry.StageFlush, time.Since(flushStart))
		rec.Add(telemetry.FamiliesFlushed, families)
		rec.Add(telemetry.StackUnitsFlushed, stackUnits)
	}
	return runs, ok, dedupGroupFailures(failed), nil
}

// dedupGroupFailures collapses the failures of one group's partitions,
// which share one index list, to the first, so pointErrors reports each
// lost point exactly once.
func dedupGroupFailures(failed []unitFailure) []unitFailure {
	seen := make(map[int]bool)
	kept := failed[:0]
	for _, f := range failed {
		if !seen[f.gid] {
			seen[f.gid] = true
			kept = append(kept, f)
		}
	}
	return kept
}

// processChunk feeds one broadcast chunk to every live unit the shard
// owns, packed once (trace.PackRefs at the pass's word shift) into a
// buffer the runner holds only for this chunk.  The BeforeChunk hook
// runs in its own recovery boundary; a panic there is shard-scope and
// kills every unit the shard still has.  A panic inside one unit (or
// its BeforeUnit hook) kills only that unit.
func (rn *shardRunner) processChunk(refs []trace.Ref, shift uint, workload string, hooks *Hooks, fail func(unitFailure, int)) {
	if hooks != nil && hooks.BeforeChunk != nil {
		if herr := safeCall(func() { hooks.BeforeChunk(workload, rn.shard, rn.chunk) }); herr != nil {
			for _, u := range rn.units {
				if u.dead {
					continue
				}
				u.dead = true
				rn.live--
				fail(unitFailure{idxs: u.idxs, shard: rn.shard, gid: u.gid, cause: herr}, 1)
			}
			rn.chunk++
			return
		}
	}
	var buf *[]uint64
	var packed []uint64
	if rn.pack {
		buf = packPool.Get().(*[]uint64)
		packed = (*buf)[:len(refs)]
		trace.PackRefs(packed, refs, shift)
	}
	for _, u := range rn.units {
		if u.dead {
			continue
		}
		if uerr := u.accessBatch(refs, packed, hooks, workload, rn.shard, rn.chunk); uerr != nil {
			u.dead = true
			rn.live--
			fail(unitFailure{idxs: u.idxs, shard: rn.shard, gid: u.gid, cause: uerr}, 1)
			continue
		}
		rn.simRefs += uint64(len(refs))
	}
	if buf != nil {
		packPool.Put(buf)
	}
	rn.chunk++
}

// simulateSharded evaluates every requested point over one workload via
// the chunk-broadcast executor, planned by req.Engine, translating unit
// failures into attributed PointErrors.  cfgs are the points' resolved
// configurations, aligned with req.Points.  A workload aborted by the
// caller's cancellation returns (nil, nil): a casualty, not a cause.
func simulateSharded(ctx context.Context, prof synth.Profile, req Request, cfgs []cache.Config, shards int) (map[Point]metrics.Run, []*PointError) {
	runs, ok, failed, err := runConfigsSharded(ctx, prof, cfgs, req.Points, req.Refs,
		req.Arch.WordSize(), shards, req.Engine, req.ContinueOnError, req.Hooks,
		telemetry.OrNop(req.Recorder))
	if err != nil {
		if ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return nil, nil
		}
		return nil, workloadError(prof.Name, -1, fmt.Errorf("trace: %w", err))
	}
	pes := pointErrors(prof.Name, req.Points, failed)
	sort.Slice(pes, func(i, j int) bool { return pointLess(pes[i].Point, pes[j].Point) })
	out := make(map[Point]metrics.Run, len(req.Points))
	for i, run := range runs {
		if ok[i] {
			out[req.Points[i]] = run
		}
	}
	return out, pes
}
