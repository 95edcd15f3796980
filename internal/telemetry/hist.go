package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Latency histograms.  The bucketing is log2 over nanoseconds: bucket 0
// holds exactly {0}, bucket i (i >= 1) holds [2^(i-1), 2^i) ns, and the
// last bucket absorbs everything at or above 2^62 ns.  An observation
// is two atomic adds plus one CAS loop for the exact maximum -- no
// locks, no allocation -- so recording rides the same hot-path budget
// as the counters.  The count is not stored: it is the bucket total,
// so a snapshot taken mid-observation never reports a count that
// disagrees with its own buckets.  Identical observation sets produce
// identical histograms regardless of interleaving (bucket/count/sum
// conservation is enforced under -race by TestHistogramConcurrentExact).

// histBuckets is the bucket-array size: bits.Len64 of any uint64 is at
// most 64, and index 63 doubles as the overflow bucket.
const histBuckets = 64

// Hist identifies one service-level latency histogram.  Stage
// histograms are recorded implicitly by Recorder.Observe; these cover
// the request path around the sweep itself.
type Hist int

const (
	// HistQueueWait is a job's time from admission to dequeue by a
	// worker.
	HistQueueWait Hist = iota
	// HistExecution is the wall time of one sweep execution attempt
	// (retries observe once per attempt).
	HistExecution
	// HistRetryBackoff is the realised backoff delay before a retry
	// attempt (shorter than scheduled when a cancellation cut it off).
	HistRetryBackoff
	// HistCacheRead is the verified disk store's read latency
	// (memory-cache hits are not observed).
	HistCacheRead
	// HistCacheWrite is the verified disk store's write latency
	// (atomic write + fsync + index update).
	HistCacheWrite
	// HistJobLatency is a job's end-to-end latency: admission to
	// terminal state, whatever the outcome.
	HistJobLatency
	numHists
)

var histNames = [numHists]string{
	HistQueueWait:    "job_queue_wait",
	HistExecution:    "job_execution",
	HistRetryBackoff: "job_retry_backoff",
	HistCacheRead:    "cache_read",
	HistCacheWrite:   "cache_write",
	HistJobLatency:   "job_latency",
}

// String returns the histogram's wire name.
func (h Hist) String() string {
	if h < 0 || h >= numHists {
		return "hist_unknown"
	}
	return histNames[h]
}

// Histogram is a concurrent-safe log2-bucketed latency histogram.  The
// zero value is ready to use.
type Histogram struct {
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds, exact
	buckets [histBuckets]atomic.Uint64
}

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(ns uint64) int {
	i := bits.Len64(ns) // 0 for ns==0, else floor(log2(ns))+1
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// bucketLo is the inclusive lower bound of bucket i, in nanoseconds.
func bucketLo(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return uint64(1) << uint(i-1)
}

// Observe records one value in nanoseconds.
func (h *Histogram) Observe(ns uint64) {
	h.buckets[bucketIndex(ns)].Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// ObserveDur records one duration (negative durations clamp to 0).
func (h *Histogram) ObserveDur(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Snap copies the histogram's current state (nil when it has recorded
// nothing, so snapshots omit untouched histograms).  Count is the sum
// of the copied buckets.
func (h *Histogram) Snap() *HistSnap {
	s := &HistSnap{}
	for i := 0; i < histBuckets; i++ {
		if v := h.buckets[i].Load(); v != 0 {
			s.Buckets = append(s.Buckets, HistBucket{LoNanos: bucketLo(i), N: v})
			s.Count += v
		}
	}
	if s.Count == 0 {
		return nil
	}
	s.SumNanos, s.MaxNanos = h.sum.Load(), h.max.Load()
	return s
}

// HistBucket is one non-empty bucket of a histogram snapshot: its
// inclusive lower bound in nanoseconds and its observation count.  The
// bucket's exclusive upper bound is 2*lo (1 for the lo==0 bucket); the
// overflow bucket (lo == 2^62) is unbounded above.
type HistBucket struct {
	LoNanos uint64 `json:"lo_ns"`
	N       uint64 `json:"n"`
}

// HistSnap is a histogram snapshot as it appears in Snapshot.Hists,
// heartbeats, RUN.json and /v1/stats: totals plus the non-empty log2
// buckets.  Buckets are ordered by lower bound.
type HistSnap struct {
	Count    uint64       `json:"count"`
	SumNanos uint64       `json:"sum_ns"`
	MaxNanos uint64       `json:"max_ns"`
	Buckets  []HistBucket `json:"buckets,omitempty"`
}

// overflowLo is the lower bound of the unbounded overflow bucket.
const overflowLo = uint64(1) << (histBuckets - 2)

// hi returns a bucket's exclusive upper bound in nanoseconds (for the
// overflow bucket there is none; hi returns MaxUint64).
func (b HistBucket) hi() uint64 {
	switch {
	case b.LoNanos == 0:
		return 1
	case b.LoNanos >= overflowLo:
		return math.MaxUint64
	default:
		return 2 * b.LoNanos
	}
}

// MeanNanos is the mean observation in nanoseconds (0 when empty).
func (s *HistSnap) MeanNanos() float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	return float64(s.SumNanos) / float64(s.Count)
}

// Quantile derives the q-th quantile (0 <= q <= 1) in nanoseconds by a
// nearest-rank walk over the buckets with linear interpolation inside
// the landing bucket, clamped to the exact recorded maximum.  Exact
// per-observation values are not retained, so the answer is accurate to
// within its bucket (a factor of 2); the maximum is exact.
func (s *HistSnap) Quantile(q float64) float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// 1-based nearest rank.
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		if rank > cum+b.N {
			cum += b.N
			continue
		}
		lo, hi := float64(b.LoNanos), float64(b.hi())
		if b.LoNanos >= overflowLo || hi > float64(s.MaxNanos) {
			hi = float64(s.MaxNanos)
		}
		if hi < lo {
			hi = lo
		}
		// Position of the rank within this bucket, interpolated.
		frac := float64(rank-cum) / float64(b.N)
		v := lo + (hi-lo)*frac
		if max := float64(s.MaxNanos); v > max {
			v = max
		}
		return v
	}
	return float64(s.MaxNanos)
}

// Merge adds another snapshot into this one, exactly: equal-bound
// buckets add, totals add, and the maximum takes the larger value.
// Merging the per-shard or per-job histograms of a partitioned run
// yields the histogram a single recorder would have produced.
func (s *HistSnap) Merge(o *HistSnap) {
	if o == nil || o.Count == 0 {
		return
	}
	s.Count += o.Count
	s.SumNanos += o.SumNanos
	if o.MaxNanos > s.MaxNanos {
		s.MaxNanos = o.MaxNanos
	}
	byLo := make(map[uint64]int, len(s.Buckets))
	for i, b := range s.Buckets {
		byLo[b.LoNanos] = i
	}
	for _, b := range o.Buckets {
		if i, ok := byLo[b.LoNanos]; ok {
			s.Buckets[i].N += b.N
		} else {
			s.Buckets = append(s.Buckets, b)
		}
	}
	// Restore bound order after appends.
	for i := 1; i < len(s.Buckets); i++ {
		for j := i; j > 0 && s.Buckets[j-1].LoNanos > s.Buckets[j].LoNanos; j-- {
			s.Buckets[j-1], s.Buckets[j] = s.Buckets[j], s.Buckets[j-1]
		}
	}
}
