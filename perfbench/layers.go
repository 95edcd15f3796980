package main

// Per-layer probes for the traced run: each layer timed alone through
// its public functions, on the workload's own traces and grid.

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"subcache/internal/cache"
	"subcache/internal/metrics"
	"subcache/internal/multipass"
	"subcache/internal/stackdist"
	"subcache/internal/sweep"
	"subcache/internal/synth"
	"subcache/internal/telemetry"
	"subcache/internal/trace"
)

// probeShape is one layer-probe input: a trace and the grid it drives.
type probeShape struct {
	prof synth.Profile
	refs int
	ws   int
	cfgs []cache.Config
}

// shapeOf takes a suite's first trace at the request's length, through
// the request's grid.
func shapeOf(req sweep.Request) probeShape {
	var cfgs []cache.Config
	for _, p := range req.Points {
		cfgs = append(cfgs, p.Config(req.Arch))
	}
	return probeShape{prof: synth.Workloads(req.Arch)[0], refs: req.Refs, ws: req.Arch.WordSize(), cfgs: cfgs}
}

// layerTotals accumulates the probes over every shape.
type layerTotals struct {
	refs                  float64 // word references generated
	gen, pack             time.Duration
	mpAccess, mpFlush     time.Duration
	mpLaneRefs            float64
	mpFamilies, mpLanes   int
	sdAccess              time.Duration
	sdLaneRefs            float64
	sdGroups, sdFootprint int
}

// probeLayers times trace generation, packing, and the multipass and
// stackdist kernels on each shape, and checks that the two kernels
// agree on every configuration's statistics.
func probeLayers(b *bench, root *activeSpan, shapes []probeShape) error {
	var t layerTotals
	for _, sh := range shapes {
		if err := probeShapeLayers(b, root, sh, &t); err != nil {
			return err
		}
	}
	b.rep.add("synth.gen_ns_per_ref", "ns", float64(t.gen)/t.refs, 0)
	b.rep.add("trace.pack_ns_per_ref", "ns", float64(t.pack)/t.refs, 0)
	b.rep.add("multipass.ns_per_lane_ref", "ns", float64(t.mpAccess)/t.mpLaneRefs, 0)
	b.rep.add("multipass.flush_ms", "ms", ms(t.mpFlush), 0)
	b.rep.add("multipass.families", "count", float64(t.mpFamilies), 0)
	b.rep.add("multipass.lanes", "count", float64(t.mpLanes), 0)
	b.rep.add("stackdist.ns_per_lane_ref", "ns", float64(t.sdAccess)/t.sdLaneRefs, 0)
	b.rep.add("stackdist.groups", "count", float64(t.sdGroups), 0)
	b.rep.add("stackdist.footprint_blocks", "count", float64(t.sdFootprint), 0)
	return nil
}

func probeShapeLayers(b *bench, root *activeSpan, sh probeShape, t *layerTotals) error {
	psp := b.spans.start("bench.layer_probe", root)
	defer psp.end()

	// Generation: the word source, drained chunk by chunk.  Only the
	// ReadChunk calls are timed; the buffers are the probe's own.
	sp := b.spans.start("synth.NewWordSource", psp)
	src, err := synth.NewWordSource(sh.prof, sh.refs, sh.ws)
	sp.end()
	if err != nil {
		return err
	}
	var chunks [][]trace.Ref
	sp = b.spans.start("synth.ReadChunk", psp)
	for {
		buf := make([]trace.Ref, trace.ChunkRefs)
		t0 := time.Now()
		n, err := trace.ReadChunk(src, buf)
		t.gen += time.Since(t0)
		if n > 0 {
			chunks = append(chunks, buf[:n])
			t.refs += float64(n)
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			sp.end()
			return err
		}
	}
	sp.end()
	words := 0
	for _, c := range chunks {
		words += len(c)
	}

	packed := make([][]uint64, len(chunks))
	for i, c := range chunks {
		packed[i] = make([]uint64, len(c))
	}
	shift := uint(bits.TrailingZeros(uint(sh.ws)))
	sp = b.spans.start("trace.PackRefs", psp)
	t0 := time.Now()
	for i, c := range chunks {
		trace.PackRefs(packed[i], c, shift)
	}
	t.pack += time.Since(t0)
	sp.end()

	// multipass: the executor's sequence -- group, build, feed every
	// chunk to every family, flush.
	mpStats := make([]*cache.Stats, len(sh.cfgs))
	sp = b.spans.start("multipass.Group", psp)
	families, _ := multipass.Group(sh.cfgs)
	sp.end()
	sp = b.spans.start("multipass.New", psp)
	fams := make([]*multipass.Family, len(families))
	lanes := 0
	for i, idxs := range families {
		fc := make([]cache.Config, len(idxs))
		for j, k := range idxs {
			fc[j] = sh.cfgs[k]
		}
		if fams[i], err = multipass.New(fc); err != nil {
			sp.end()
			return err
		}
		lanes += fams[i].Lanes()
	}
	sp.end()
	sp = b.spans.start("multipass.AccessBatchPacked", psp)
	t0 = time.Now()
	for i, c := range chunks {
		for _, f := range fams {
			f.AccessBatchPacked(c, packed[i])
		}
	}
	t.mpAccess += time.Since(t0)
	sp.end()
	sp = b.spans.start("multipass.FlushUsage", psp)
	t0 = time.Now()
	for _, f := range fams {
		f.FlushUsage()
	}
	t.mpFlush += time.Since(t0)
	sp.end()
	for i, idxs := range families {
		for j, k := range idxs {
			mpStats[k] = fams[i].Stats(j)
		}
	}
	t.mpFamilies += len(fams)
	t.mpLanes += lanes
	t.mpLaneRefs += float64(words) * float64(lanes)

	// stackdist on the same chunks, one engine per stack group.
	sp = b.spans.start("stackdist.Group", psp)
	groups, _ := stackdist.Group(sh.cfgs)
	sp.end()
	sp = b.spans.start("stackdist.NewEngine", psp)
	engs := make([]*stackdist.Engine, len(groups))
	lanes = 0
	for i, idxs := range groups {
		gc := make([]cache.Config, len(idxs))
		for j, k := range idxs {
			gc[j] = sh.cfgs[k]
		}
		if engs[i], err = stackdist.NewEngine(gc, 1, 0); err != nil {
			sp.end()
			return err
		}
		lanes += engs[i].Lanes()
	}
	sp.end()
	sp = b.spans.start("stackdist.AccessBatchPacked", psp)
	t0 = time.Now()
	for i, c := range chunks {
		for _, e := range engs {
			e.AccessBatchPacked(c, packed[i])
		}
	}
	t.sdAccess += time.Since(t0)
	sp.end()
	sp = b.spans.start("stackdist.FlushUsage", psp)
	for _, e := range engs {
		t.sdFootprint += e.Footprint()
		e.FlushUsage()
	}
	sp.end()
	t.sdGroups += len(engs)
	t.sdLaneRefs += float64(words) * float64(lanes)

	// The two single-pass kernels are exact: every configuration both
	// simulated must have identical statistics.
	for i, idxs := range groups {
		for j, k := range idxs {
			why := ""
			if mpStats[k] != nil && !reflect.DeepEqual(*mpStats[k], *engs[i].Stats(j)) {
				why = fmt.Sprintf("%s %+v: multipass and stackdist statistics differ", sh.prof.Name, sh.cfgs[k])
			}
			b.rep.op(why)
		}
	}
	return nil
}

// probeCheckpoint times sweep.OpenJournal plus one Journal.Record per
// workload of a completed suite -- what a checkpointed sweep adds per
// workload -- and checks that each entry reads back intact.
func probeCheckpoint(b *bench, root *activeSpan, req sweep.Request, res *sweep.Result) error {
	fp, err := sweep.RequestFingerprint(req)
	if err != nil {
		return err
	}
	psp := b.spans.start("bench.checkpoint_probe", root)
	defer psp.end()
	var samples []float64
	for wi, prof := range synth.Workloads(req.Arch) {
		runs := map[sweep.Point]metrics.Run{}
		for _, p := range req.Points {
			runs[p] = res.Runs[p][wi]
		}
		path := filepath.Join(b.dir, fmt.Sprintf("probe-%d.ckpt.jsonl", wi))
		sp := b.spans.start("sweep.OpenJournal", psp)
		t0 := time.Now()
		j, err := sweep.OpenJournal(path)
		sp.end()
		if err != nil {
			return err
		}
		sp = b.spans.start("sweep.Journal.Record", psp)
		err = j.Record(fp, prof.Name, req.Points, runs)
		d := time.Since(t0)
		sp.end()
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		samples = append(samples, ms(d))

		why := ""
		j, err = sweep.OpenJournal(path)
		if err != nil {
			return err
		}
		if got, ok := j.Lookup(fp, prof.Name); !ok || !reflect.DeepEqual(got, runs) {
			why = fmt.Sprintf("checkpoint entry for %s did not read back intact", prof.Name)
		}
		j.Close()
		os.Remove(path)
		b.rep.op(why)
	}
	b.rep.add("sweep.checkpoint_record_ms", "ms", median(samples), len(samples))
	return nil
}

// addRecorderMetrics reports the sweep layer's own stage accounting,
// read from the recorders attached to ops operations' sweeps.
func addRecorderMetrics(b *bench, snaps []*telemetry.Snapshot, ops int) {
	stage := func(s telemetry.Stage) float64 {
		total := 0.0
		for _, sn := range snaps {
			total += sn.StagesMS[s.String()]
		}
		return total / float64(ops)
	}
	var imbalance, ring []float64
	var chunks float64
	for _, sn := range snaps {
		if len(sn.Shards) > 0 {
			var sum, hi float64
			for _, sh := range sn.Shards {
				sum += sh.BusyMS
				hi = max(hi, sh.BusyMS)
			}
			if sum > 0 {
				imbalance = append(imbalance, hi/(sum/float64(len(sn.Shards))))
			}
		}
		ring = append(ring, float64(sn.Gauges[telemetry.FreeRingOccupancy.String()]))
		chunks += float64(sn.Counter(telemetry.ChunksBroadcast))
	}
	b.rep.add("sweep.trace_read_ms", "ms", stage(telemetry.StageTraceRead), ops)
	b.rep.add("sweep.broadcast_ms", "ms", stage(telemetry.StageBroadcast), ops)
	b.rep.add("sweep.simulate_ms", "ms", stage(telemetry.StageSimulate), ops)
	b.rep.add("sweep.flush_ms", "ms", stage(telemetry.StageFlush), ops)
	b.rep.add("sweep.shard_imbalance", "ratio", median(imbalance), len(imbalance))
	b.rep.add("sweep.free_ring_occupancy", "count", median(ring), len(ring))
	b.rep.add("sweep.chunks_broadcast", "count", chunks/float64(ops), ops)
}
