// Fault tolerance for sweep execution: typed, attributed errors and
// panic isolation.
//
// A million-reference grid sweep is only trustworthy if partial
// failures are detected and attributed rather than silently absorbed --
// or worse, if one corrupt trace byte or one panicking worker discards
// the whole grid.  Every simulation unit (a multipass family, a stack
// partition or a reference cache) therefore runs its per-chunk work
// inside a recovery boundary: a panic becomes a PanicError, which is
// wrapped in a PointError naming the exact workload, point and shard
// that died.
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

	"subcache/internal/cache"
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

// kernel is what the executor drives in every simulation unit: a
// multipass.Family, a stackdist.Engine (one set partition of a stack
// group) or, through refKernel, one cache.Cache.  Lane j of the kernel
// is the unit's j-th configuration.
type kernel interface {
	// AccessBatchPacked feeds one chunk; packed is the chunk in
	// trace.PackRefs form at the pass's word granularity.
	AccessBatchPacked(refs []trace.Ref, packed []uint64)
	// FlushUsage finalises the statistics at end of trace.
	FlushUsage()
	Stats(j int) *cache.Stats
	Config(j int) cache.Config
}

// refKernel adapts one reference cache to kernel: it has one lane and
// reads the plain references, not their packed form.
type refKernel struct{ c *cache.Cache }

func (k refKernel) AccessBatchPacked(refs []trace.Ref, _ []uint64) { k.c.AccessBatch(refs) }
func (k refKernel) FlushUsage()                                    { k.c.FlushUsage() }
func (k refKernel) Stats(int) *cache.Stats                         { return k.c.Stats() }
func (k refKernel) Config(int) cache.Config                        { return k.c.Config() }

// simUnit is one independently failable simulation unit: one kernel
// plus the grid points it carries.  The planner (plan.go) creates units
// unbuilt -- kind, indexes, group and partition only -- and build
// constructs the kernel.  Exactly one goroutine drives a unit, so no
// locking is needed; dead units stop simulating but their stream keeps
// flowing to the rest.
type simUnit struct {
	kind unitKind
	k    kernel
	idxs []int   // config indexes into the request's cfgs/points
	pts  []Point // attributed points, aligned with idxs (nil for RunConfigs)
	// gid is the unit's group id, counted from one.  A family or
	// reference cache is a group of its own; the set partitions of one
	// stack group share a gid and an idxs slice.  The partitions'
	// statistics merge at flush time, and one dead partition poisons
	// the whole group.
	gid int
	// parts and part select a stack unit's set partition: it sees the
	// blocks with blk & (parts-1) == part.  Siblings may differ in
	// parts; together they cover every block exactly once.
	parts, part uint64
	dead        bool
}

// accessBatch feeds one chunk and its packed form to the unit inside a
// recovery boundary, calling the BeforeUnit hook (if any) inside the
// same boundary.
func (u *simUnit) accessBatch(refs []trace.Ref, packed []uint64, hooks *Hooks, workload string, shard, chunk int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if hooks != nil && hooks.BeforeUnit != nil {
		hooks.BeforeUnit(workload, shard, u.pts, chunk)
	}
	u.k.AccessBatchPacked(refs, packed)
	return nil
}

// unitFailure records one dead unit inside a single-workload executor,
// before translation into per-point PointErrors.  gid carries the
// unit's group id so failures of sibling set partitions, which share an
// index list, can be deduplicated to one attribution per lost point.
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
