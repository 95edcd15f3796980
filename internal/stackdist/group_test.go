package stackdist_test

import (
	"reflect"
	"testing"

	"subcache/internal/cache"
	"subcache/internal/stackdist"
)

// planConfigs is a mixed grid: two stack groups (block 16 and block 32)
// plus configurations stack analysis must refuse.
func planConfigs() []cache.Config {
	cfgs := groupLanes(cache.Config{BlockSize: 16, WordSize: 2},
		[]int{256, 1024}, []int{2, 4}, []int{4, 16})
	cfgs = append(cfgs, groupLanes(cache.Config{BlockSize: 32, WordSize: 2},
		[]int{512}, []int{4}, []int{8, 32})...)
	fifo := cfgs[0]
	fifo.Replacement = cache.FIFO
	prefetch := cfgs[1]
	prefetch.PrefetchOBL = true
	return append(cfgs, fifo, prefetch)
}

// TestPartitionCoverage: Group puts every Supported index in exactly
// one group of configurations sharing a Key, and every unsupported one
// in the rest.  (The shard planner's per-partition coverage checks live
// in internal/sweep.)
func TestPartitionCoverage(t *testing.T) {
	cfgs := planConfigs()
	groups, rest := stackdist.Group(cfgs)
	if len(groups) != 2 || len(rest) != 2 {
		t.Fatalf("got %d groups and %d rest, want 2 and 2", len(groups), len(rest))
	}
	seen := make(map[int]int)
	for _, g := range groups {
		key := stackdist.Key(cfgs[g[0]])
		for _, k := range g {
			seen[k]++
			if err := stackdist.Supported(cfgs[k]); err != nil {
				t.Errorf("unsupported config %d grouped: %v", k, err)
			}
			if stackdist.Key(cfgs[k]) != key {
				t.Errorf("group mixes keys at index %d", k)
			}
		}
	}
	for _, k := range rest {
		seen[k]++
		if stackdist.Supported(cfgs[k]) == nil {
			t.Errorf("supported config %d in rest", k)
		}
	}
	for i := range cfgs {
		if seen[i] != 1 {
			t.Errorf("index %d grouped %d times", i, seen[i])
		}
	}
}

// TestPartitionDeterministic: grouping is a pure function of its
// inputs.
func TestPartitionDeterministic(t *testing.T) {
	cfgs := planConfigs()
	a, restA := stackdist.Group(cfgs)
	b, restB := stackdist.Group(cfgs)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(restA, restB) {
		t.Error("Group is not deterministic")
	}
}

// TestPartitionWarmStartPinned: a warm-start member pins its group to
// one partition -- MaxParts says so and NewEngine refuses a fan-out --
// while a cold group may fan out to its smallest set count.
func TestPartitionWarmStartPinned(t *testing.T) {
	warm := groupLanes(cache.Config{BlockSize: 16, WordSize: 2, WarmStart: true},
		[]int{256, 1024}, []int{2, 4}, []int{4, 16})
	for _, cfg := range warm {
		if p := stackdist.MaxParts(cfg); p != 1 {
			t.Errorf("%v: MaxParts = %d, want 1", cfg, p)
		}
	}
	if _, err := stackdist.NewEngine(warm, 1, 0); err != nil {
		t.Fatalf("unpartitioned warm group refused: %v", err)
	}
	if _, err := stackdist.NewEngine(warm, 2, 1); err == nil {
		t.Error("warm group accepted a fan-out of 2")
	}

	cold := groupLanes(cache.Config{BlockSize: 16, WordSize: 2},
		[]int{256}, []int{2}, []int{4, 16}) // 8 sets
	for _, cfg := range cold {
		if p := stackdist.MaxParts(cfg); p != uint64(cfg.NumSets()) {
			t.Errorf("%v: MaxParts = %d, want its %d sets", cfg, p, cfg.NumSets())
		}
	}
	if _, err := stackdist.NewEngine(cold, 8, 7); err != nil {
		t.Errorf("fan-out to the set count refused: %v", err)
	}
	if _, err := stackdist.NewEngine(cold, 16, 0); err == nil {
		t.Error("fan-out past the set count accepted")
	}
}
