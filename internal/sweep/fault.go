// Fault tolerance for sweep execution: typed, attributed errors and
// panic isolation.
//
// A million-reference grid sweep is only trustworthy if partial
// failures are detected and attributed rather than silently absorbed --
// or worse, if one corrupt trace byte or one panicking worker discards
// the whole grid.  Every simulation unit (a multipass family or a
// fallback reference cache) therefore runs its per-chunk work inside a
// recovery boundary: a panic becomes a PanicError, which is wrapped in
// a PointError naming the exact workload, point and shard that died.
// Under the default fail-fast policy the first PointError aborts the
// sweep (as before, but without crashing the process); under
// Request.ContinueOnError the dead unit is retired, its points are
// reported in Result.Errors, and every other unit keeps consuming the
// complete ordered stream -- so surviving points stay bit-identical to
// an undisturbed run.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"subcache/internal/addr"
	"subcache/internal/cache"
	"subcache/internal/metrics"
	"subcache/internal/multipass"
	"subcache/internal/stackdist"
	"subcache/internal/telemetry"
	"subcache/internal/trace"
)

// PointError attributes one simulation failure to its exact origin: the
// workload whose trace was being replayed, the grid point (cache
// configuration) that was lost, and the shard worker that hosted it.
type PointError struct {
	// Workload names the trace suite member being simulated.
	Workload string
	// Point is the lost grid point.  The zero Point marks a
	// workload-scope failure (e.g. a trace read error), which loses
	// every point of the workload; see WorkloadScope.
	Point Point
	// Shard is the shard worker index that hosted the failure, or -1
	// for a failure outside every shard worker: a workload-scope trace
	// failure or a checkpoint write.
	Shard int
	// Cause is the underlying failure: a trace error, a configuration
	// error, or a *PanicError for a recovered panic.
	Cause error
}

// WorkloadScope reports whether the failure lost the whole workload
// rather than one point: trace-stream errors invalidate every
// configuration's counters, so no partial runs are reported for it.
func (e *PointError) WorkloadScope() bool { return e.Point == Point{} }

// Error renders the attribution on one line.
func (e *PointError) Error() string {
	s := "sweep: workload " + e.Workload
	if !e.WorkloadScope() {
		s += " point " + e.Point.String()
	}
	if e.Shard >= 0 {
		s += fmt.Sprintf(" shard %d", e.Shard)
	}
	return s + ": " + e.Cause.Error()
}

// Unwrap exposes the cause to errors.Is/As.
func (e *PointError) Unwrap() error { return e.Cause }

// event renders the attributed failure as its telemetry event: every
// PointError a sweep reports is mirrored by exactly one
// error-attributed event on the stream.
func (e *PointError) event() *telemetry.Event {
	var pe *PanicError
	point := ""
	if !e.WorkloadScope() {
		point = e.Point.String()
	}
	return &telemetry.Event{Type: telemetry.EventErrorAttributed, Error: &telemetry.ErrorAttributed{
		Workload: e.Workload,
		Point:    point,
		Shard:    e.Shard,
		Cause:    e.Cause.Error(),
		Panic:    errors.As(e.Cause, &pe),
	}}
}

// Transient reports whether a sweep failure is plausibly transient and
// worth retrying: a workload-scope PointError -- a trace-source failure
// such as a short read or a corrupt record, which loses the workload
// without poisoning any state -- whose cause is neither a recovered
// panic (a programming error repeats identically) nor the caller's own
// cancellation or deadline.  Point-scope failures (configuration
// construction, unit panics) and non-attributed errors are never
// transient.  The sweep service retries transient failures with
// exponential backoff; because completed workloads sit in the
// checkpoint journal, a retry resumes instead of restarting.
func Transient(err error) bool {
	var pe *PointError
	if !errors.As(err, &pe) || !pe.WorkloadScope() {
		return false
	}
	var pan *PanicError
	if errors.As(pe.Cause, &pan) {
		return false
	}
	if errors.Is(pe.Cause, context.Canceled) || errors.Is(pe.Cause, context.DeadlineExceeded) {
		return false
	}
	return true
}

// PanicError is a panic recovered from a simulation unit, a hook, or a
// trace source, preserving the panic value and the stack at the point
// of recovery.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value; the stack is kept for callers that
// want to log it.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// safeCall runs fn, converting a panic into a *PanicError.
func safeCall(fn func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// Hooks instruments the execution layer.  It exists for the
// fault-injection harness (internal/faultinject) and tests: every hook
// is called from hot simulation paths, under the same panic-recovery
// boundaries as the simulation itself, so an injected panic is
// attributed exactly like a real one.  All hooks may be nil.
type Hooks struct {
	// WrapSource, if set, wraps each workload's word-split trace
	// source before the executor starts streaming it.  It is never
	// called for a workload whose units fail construction under
	// fail-fast.  Faults injected here surface as workload-scope trace
	// errors.
	WrapSource func(workload string, src trace.Source) trace.Source
	// BeforeChunk is called by each shard worker before it simulates a
	// chunk.  A panic here kills every unit the shard owns
	// (shard-scope).
	BeforeChunk func(workload string, shard, chunk int)
	// BeforeUnit is called before one simulation unit (a multipass
	// family, a fallback cache, or a reference-engine point) processes
	// a chunk; points lists the grid points the unit carries and shard
	// the worker that owns it.  A panic here kills exactly that unit.
	BeforeUnit func(workload string, shard int, points []Point, chunk int)
}

func (h *Hooks) wrapSource(workload string, src trace.Source) trace.Source {
	if h == nil || h.WrapSource == nil {
		return src
	}
	return h.WrapSource(workload, src)
}

// simUnit is one independently failable simulation unit: a multipass
// family, a stack-distance engine (one set partition of a stack
// group), or a single reference cache, plus the grid points it
// carries.  The planner (plan.go) creates units unbuilt -- kind,
// indexes, group and partition only -- and build constructs the
// engine.  Exactly one goroutine drives a unit, so no locking is
// needed; dead units stop simulating but their stream keeps flowing to
// the rest.
type simUnit struct {
	kind  unitKind
	fam   *multipass.Family
	stack *stackdist.Engine
	cache *cache.Cache
	idxs  []int   // config indexes into the request's cfgs/points
	pts   []Point // attributed points, aligned with idxs (nil for RunConfigs)
	// gid is the stack group id, counted from one (zero for non-stack
	// units).  Sibling set partitions of one group share a gid and an
	// idxs slice: their statistics merge at collect time, and one dead
	// sibling poisons the whole group.
	gid int
	// parts and part select a stack unit's set partition: it sees the
	// blocks with blk & (parts-1) == part.  Siblings may differ in
	// parts; together they cover every block exactly once.
	parts, part uint64
	dead        bool
}

// accessBatch feeds one chunk to the unit inside a recovery boundary,
// calling the BeforeUnit hook (if any) inside the same boundary.
// packed, when non-nil, is the chunk in trace.PackRefs form at the
// unit's word granularity (see packSet); units that cannot consume it
// receive nil and fall back to the plain batch entry point.
func (u *simUnit) accessBatch(refs []trace.Ref, packed []uint64, hooks *Hooks, workload string, shard, chunk int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if hooks != nil && hooks.BeforeUnit != nil {
		hooks.BeforeUnit(workload, shard, u.pts, chunk)
	}
	switch {
	case u.fam != nil:
		if packed != nil {
			u.fam.AccessBatchPacked(refs, packed)
		} else {
			u.fam.AccessBatch(refs)
		}
	case u.stack != nil:
		if packed != nil {
			u.stack.AccessBatchPacked(refs, packed)
		} else {
			u.stack.AccessBatch(refs)
		}
	default:
		u.cache.AccessBatch(refs)
	}
	return nil
}

// packSet shares one trace.PackRefs pass per broadcast chunk across
// every multipass family and stack engine a shard runner drives: the
// engines spend a real share of their per-reference budget re-deriving
// the word index and access kind from the 16-byte Ref, and the packed
// form is geometry-free, so one buffer per word granularity (in
// practice one per workload) serves all of them.  Not safe for
// concurrent use; each shard runner owns its own.
type packSet struct {
	shifts []uint
	bufs   [][]uint64
	done   []bool
}

// unitWordShift returns the unit's packing granularity, or -1 if the
// unit does not consume packed chunks.
func unitWordShift(u *simUnit) int {
	switch {
	case u.fam != nil:
		return int(addr.Log2(uint64(u.fam.WordSize())))
	case u.stack != nil:
		return int(addr.Log2(uint64(u.stack.WordSize())))
	}
	return -1
}

// newPackSet returns a packSet covering the word granularities of the
// units' multipass families and stack engines, or nil if none can
// consume packed chunks.
func newPackSet(units []*simUnit) *packSet {
	var ps *packSet
	for _, u := range units {
		ws := unitWordShift(u)
		if ws < 0 {
			continue
		}
		shift := uint(ws)
		if ps == nil {
			ps = &packSet{}
		}
		if !ps.has(shift) {
			ps.shifts = append(ps.shifts, shift)
			ps.bufs = append(ps.bufs, *packPool.Get().(*[]uint64))
			ps.done = append(ps.done, false)
		}
	}
	return ps
}

// release returns the set's chunk-sized buffers to packPool for the
// next pass; the set must not be used afterwards.
func (ps *packSet) release() {
	if ps == nil {
		return
	}
	for i, b := range ps.bufs {
		if len(b) == trace.ChunkRefs {
			packPool.Put(&b)
		}
		ps.bufs[i] = nil
	}
}

func (ps *packSet) has(shift uint) bool {
	for _, s := range ps.shifts {
		if s == shift {
			return true
		}
	}
	return false
}

// next invalidates every cached buffer; the shard runner calls it at
// each chunk boundary before re-feeding its units.
func (ps *packSet) next() {
	if ps == nil {
		return
	}
	for i := range ps.done {
		ps.done[i] = false
	}
}

// forUnit returns the shared packed form of refs for u, packing it on
// first use within the current chunk, or nil if u does not consume one.
func (ps *packSet) forUnit(u *simUnit, refs []trace.Ref) []uint64 {
	if ps == nil {
		return nil
	}
	ws := unitWordShift(u)
	if ws < 0 {
		return nil
	}
	shift := uint(ws)
	for i, s := range ps.shifts {
		if s != shift {
			continue
		}
		if len(refs) > len(ps.bufs[i]) {
			ps.bufs[i] = make([]uint64, len(refs))
			ps.done[i] = false
		}
		if !ps.done[i] {
			trace.PackRefs(ps.bufs[i], refs, shift)
			ps.done[i] = true
		}
		return ps.bufs[i][:len(refs)]
	}
	return nil
}

// collect finalises a family or reference-cache unit and writes its
// runs into runs (indexed by config index), inside a recovery boundary
// of its own: a panic while flushing loses only this unit's points.
// Stack units never collect alone -- the executor merges sibling set
// partitions per group.
func (u *simUnit) collect(traceName string, runs []metrics.Run) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	switch {
	case u.fam != nil:
		u.fam.FlushUsage()
		for j, k := range u.idxs {
			runs[k] = metrics.NewRun(traceName, u.fam.Config(j), u.fam.Stats(j))
		}
	default:
		u.cache.FlushUsage()
		runs[u.idxs[0]] = metrics.NewRun(traceName, u.cache.Config(), u.cache.Stats())
	}
	return nil
}

// unitFailure records one dead unit inside a single-workload executor,
// before translation into per-point PointErrors.  gid carries the
// unit's stack group id (zero otherwise) so failures of sibling set
// partitions, which share an index list, can be deduplicated to one
// attribution per lost point.
type unitFailure struct {
	idxs  []int
	shard int
	gid   int
	cause error
}

// pointErrors expands per-unit failures into one PointError per lost
// point, in config-index order.
func pointErrors(workload string, points []Point, failed []unitFailure) []*PointError {
	var out []*PointError
	for _, f := range failed {
		for _, k := range f.idxs {
			out = append(out, &PointError{Workload: workload, Point: points[k], Shard: f.shard, Cause: f.cause})
		}
	}
	return out
}

// workloadError wraps a workload-scope failure (no surviving points).
func workloadError(workload string, shard int, cause error) []*PointError {
	return []*PointError{{Workload: workload, Shard: shard, Cause: cause}}
}
