package main

import (
	"encoding/json"
	"fmt"
	"os"
	rtmetrics "runtime/metrics"
	"sort"
	"time"
)

// median returns the middle sample (mean of the middle two), 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-th quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// heapSampler tracks the live heap (as of each GC's mark) while it
// runs, reading runtime/metrics, which stops no goroutine.  A single
// maximum over a run swings with where the collector happens to land,
// so the sampler keeps the highest value of each heapWindow and
// reports the median of those per-window peaks.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peaks []float64
}

const (
	liveHeapMetric = "/gc/heap/live:bytes"
	heapWindow     = time.Second
)

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []rtmetrics.Sample{{Name: liveHeapMetric}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		windowEnd := time.Now().Add(heapWindow)
		for {
			rtmetrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			if now := time.Now(); now.After(windowEnd) {
				h.peaks = append(h.peaks, float64(peak)/(1<<20))
				peak, windowEnd = 0, now.Add(heapWindow)
			}
			select {
			case <-h.stopc:
				if peak > 0 {
					h.peaks = append(h.peaks, float64(peak)/(1<<20))
				}
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the median per-window peak in MB
// (2^20 bytes) and the number of windows.
func (h *heapSampler) stop() (float64, int) {
	close(h.stopc)
	<-h.done
	return median(h.peaks), len(h.peaks)
}

// declaredMetric is one metric BENCHMARK.json declares.
type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declaration is the part of BENCHMARK.json the program checks its
// output against: a run must report exactly the declared set.
type declaration struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}
