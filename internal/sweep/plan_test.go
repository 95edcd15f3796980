package sweep

import (
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"testing"

	"subcache/internal/cache"
	"subcache/internal/stackdist"
	"subcache/internal/synth"
	"subcache/internal/trace"
)

// partitionCfg builds a MultiPassSafe grid configuration.
func partitionCfg(net, block, sub int) cache.Config {
	assoc := 4
	if frames := net / block; frames < assoc {
		assoc = frames
	}
	return cache.Config{
		NetSize: net, BlockSize: block, SubBlockSize: sub,
		Assoc: assoc, WordSize: 2,
		Replacement: cache.LRU, Write: cache.WriteAllocate,
	}
}

// partitionSuite is a representative mix: three families of different
// widths plus two fallback (non-MultiPassSafe) configurations.
func partitionSuite() []cache.Config {
	var cfgs []cache.Config
	for _, sub := range []int{2, 4, 8, 16} {
		cfgs = append(cfgs, partitionCfg(256, 16, sub))
	}
	for _, sub := range []int{2, 4} {
		cfgs = append(cfgs, partitionCfg(64, 8, sub))
	}
	cfgs = append(cfgs, partitionCfg(1024, 32, 8))
	obl := partitionCfg(256, 16, 8)
	obl.PrefetchOBL = true
	cfgs = append(cfgs, obl)
	wna := partitionCfg(64, 8, 2)
	wna.Write = cache.WriteNoAllocate
	cfgs = append(cfgs, wna)
	return cfgs
}

// stackLanes expands base over net sizes, associativities and
// sub-block sizes (plus the three load-forward-style fetches for every
// split block): one stack group's worth of configurations.
func stackLanes(base cache.Config, nets, assocs, subs []int) []cache.Config {
	var cfgs []cache.Config
	for _, net := range nets {
		for _, assoc := range assocs {
			for _, sub := range subs {
				c := base
				c.NetSize, c.Assoc, c.SubBlockSize = net, assoc, sub
				if c.Replacement == 0 {
					c.Replacement = cache.LRU
				}
				if c.Assoc > c.NumFrames() {
					continue
				}
				cfgs = append(cfgs, c)
				if sub < base.BlockSize {
					for _, f := range []cache.Fetch{cache.LoadForward, cache.LoadForwardOptimized, cache.WholeBlock} {
						cf := c
						cf.Fetch = f
						cfgs = append(cfgs, cf)
					}
				}
			}
		}
	}
	return cfgs
}

// stackSuite is a mixed grid: two stack groups (block 16 and block 32)
// plus configurations stack analysis must refuse -- one FIFO (a
// multipass family under StackDist) and one prefetching (not even
// MultiPassSafe, so a reference cache).
func stackSuite() []cache.Config {
	cfgs := stackLanes(cache.Config{BlockSize: 16, WordSize: 2},
		[]int{256, 1024}, []int{2, 4}, []int{4, 16})
	cfgs = append(cfgs, stackLanes(cache.Config{BlockSize: 32, WordSize: 2},
		[]int{512}, []int{4}, []int{8, 32})...)
	fifo := cfgs[0]
	fifo.Replacement = cache.FIFO
	prefetch := cfgs[1]
	prefetch.PrefetchOBL = true
	return append(cfgs, fifo, prefetch)
}

var allEngines = []Engine{Reference, MultiPass, StackDist}

// checkPlan asserts the shape every plan must have: no more lists than
// shards, no empty list or unit, every non-stack index in exactly one
// unit, and every stack group's set partitions covering each block
// residue exactly once.
func checkPlan(t *testing.T, what string, cfgs []cache.Config, shards int, lists [][]*simUnit) {
	t.Helper()
	if len(lists) > max(shards, 1) {
		t.Fatalf("%s: %d lists for %d shards", what, len(lists), shards)
	}
	seen := make(map[int]int)
	stack := make(map[int][]*simUnit) // gid -> set partitions
	for li, list := range lists {
		if len(list) == 0 {
			t.Errorf("%s: list %d is empty", what, li)
		}
		for _, u := range list {
			if len(u.idxs) == 0 {
				t.Fatalf("%s: list %d has a unit with no configurations", what, li)
			}
			if u.cost() < 1 {
				t.Errorf("%s: unit %v costs %d", what, u.idxs, u.cost())
			}
			if u.kind == stackUnit {
				if len(stack[u.gid]) == 0 {
					for _, k := range u.idxs {
						seen[k]++
					}
				} else if !reflect.DeepEqual(stack[u.gid][0].idxs, u.idxs) {
					t.Errorf("%s: group %d siblings carry different lanes", what, u.gid)
				}
				stack[u.gid] = append(stack[u.gid], u)
				continue
			}
			for _, k := range u.idxs {
				seen[k]++
			}
		}
	}
	for i := range cfgs {
		if seen[i] != 1 {
			t.Fatalf("%s: index %d planned %d times", what, i, seen[i])
		}
	}
	for gid, sibs := range stack {
		widest := uint64(1)
		for _, u := range sibs {
			if u.part >= u.parts {
				t.Errorf("%s: group %d: part %d >= parts %d", what, gid, u.part, u.parts)
			}
			widest = max(widest, u.parts)
		}
		for r := uint64(0); r < widest; r++ {
			n := 0
			for _, u := range sibs {
				if r&(u.parts-1) == u.part {
					n++
				}
			}
			if n != 1 {
				t.Errorf("%s: group %d: block residue %d mod %d covered %d times", what, gid, r, widest, n)
			}
		}
	}
}

// TestPartitionCoversEveryIndex: every engine at every shard count
// yields lists that cover each configuration index exactly once per
// partition, with no empty list and never more lists than shards.
func TestPartitionCoversEveryIndex(t *testing.T) {
	for _, suite := range [][]cache.Config{partitionSuite(), stackSuite()} {
		for _, eng := range allEngines {
			for shards := -1; shards <= len(suite)+4; shards++ {
				checkPlan(t, eng.String()+"/shards="+strconv.Itoa(shards), suite, shards, planShards(eng, suite, shards))
			}
		}
	}
}

// TestPartitionFamilyInvariants: every planned family is a real
// single-pass family -- all members MultiPassSafe and sharing one
// FamilyKey -- every reference unit holds one configuration, and each
// configuration rides the cheapest unit kind its engine allows.
func TestPartitionFamilyInvariants(t *testing.T) {
	for _, cfgs := range [][]cache.Config{partitionSuite(), stackSuite()} {
		for _, eng := range allEngines {
			for _, shards := range []int{1, 2, 3, len(cfgs) + 4} {
				for _, list := range planShards(eng, cfgs, shards) {
					for _, u := range list {
						switch u.kind {
						case familyUnit:
							if eng == Reference {
								t.Errorf("%v: family planned", eng)
							}
							key := cfgs[u.idxs[0]].FamilyKey()
							for _, k := range u.idxs {
								if !cfgs[k].MultiPassSafe() {
									t.Errorf("%v shards=%d: non-safe config %d planned into a family", eng, shards, k)
								}
								if cfgs[k].FamilyKey() != key {
									t.Errorf("%v shards=%d: family mixes keys at index %d", eng, shards, k)
								}
								if eng == StackDist && stackdist.Supported(cfgs[k]) == nil {
									t.Errorf("%v shards=%d: stack-supported config %d planned into a family", eng, shards, k)
								}
							}
						case referenceUnit:
							if len(u.idxs) != 1 {
								t.Errorf("%v shards=%d: reference unit carries %d configs", eng, shards, len(u.idxs))
							}
							if eng != Reference && cfgs[u.idxs[0]].MultiPassSafe() {
								t.Errorf("%v shards=%d: safe config %d left on the reference path", eng, shards, u.idxs[0])
							}
						case stackUnit:
							if eng != StackDist {
								t.Errorf("%v: stack unit planned", eng)
							}
						}
					}
				}
			}
		}
	}
}

// TestPartitionStackCoverage: stack units hold only Supported
// configurations sharing one stackdist.Key, never fan out past the
// smallest member's set count, and under StackDist every Supported
// configuration rides a stack unit.
func TestPartitionStackCoverage(t *testing.T) {
	cfgs := stackSuite()
	for _, shards := range []int{1, 2, 3, 8, 64} {
		inStack := make(map[int]bool)
		for _, list := range planShards(StackDist, cfgs, shards) {
			for _, u := range list {
				if u.kind != stackUnit {
					continue
				}
				key := stackdist.Key(cfgs[u.idxs[0]])
				for _, k := range u.idxs {
					inStack[k] = true
					if err := stackdist.Supported(cfgs[k]); err != nil {
						t.Errorf("shards=%d: unsupported config %d planned: %v", shards, k, err)
					}
					if stackdist.Key(cfgs[k]) != key {
						t.Errorf("shards=%d: stack unit mixes keys at index %d", shards, k)
					}
					if u.parts > uint64(cfgs[k].NumSets()) {
						t.Errorf("shards=%d: fan-out %d exceeds %d sets of config %d", shards, u.parts, cfgs[k].NumSets(), k)
					}
				}
			}
		}
		for i, cfg := range cfgs {
			if supported := stackdist.Supported(cfg) == nil; supported != inStack[i] {
				t.Errorf("shards=%d: index %d on a stack unit=%v, supported=%v", shards, i, inStack[i], supported)
			}
		}
	}
}

// TestPartitionWarmStartPinned: a group containing a warm-start member
// must never fan out, however many shards ask for work.
func TestPartitionWarmStartPinned(t *testing.T) {
	warm := stackLanes(cache.Config{BlockSize: 16, WordSize: 2, WarmStart: true},
		[]int{256, 1024}, []int{2, 4}, []int{4, 16})
	lists := planShards(StackDist, warm, 16)
	if len(lists) != 1 {
		t.Fatalf("warm-start group planned onto %d shards, want 1", len(lists))
	}
	for _, u := range lists[0] {
		if u.kind != stackUnit {
			t.Errorf("warm-start config %v planned as kind %d", u.idxs, u.kind)
		}
		if u.parts != 1 {
			t.Errorf("warm-start group fanned out to %d partitions", u.parts)
		}
	}
}

// TestPartitionFansOutForIdleShards: one big splittable group and many
// shards -- set partitioning must spread the group over all of them.
func TestPartitionFansOutForIdleShards(t *testing.T) {
	cfgs := stackLanes(cache.Config{BlockSize: 16, WordSize: 2},
		[]int{1024}, []int{2}, []int{4, 16}) // 32 sets: plenty of fan-out room
	lists := planShards(StackDist, cfgs, 8)
	if len(lists) != 8 {
		t.Fatalf("8 idle shards: group reached %d of them", len(lists))
	}
	checkPlan(t, "fan-out", cfgs, 8, lists)

	// Three shards split unevenly: (2, 1) stays whole while its sibling
	// becomes (4, 0) and (4, 2).
	lists = planShards(StackDist, cfgs, 3)
	var got [][2]uint64
	for _, list := range lists {
		for _, u := range list {
			got = append(got, [2]uint64{u.parts, u.part})
		}
	}
	if want := [][2]uint64{{2, 1}, {4, 0}, {4, 2}}; !reflect.DeepEqual(got, want) {
		t.Errorf("3 shards: partitions %v, want %v", got, want)
	}
}

// TestPartitionSplitsWideFamilies: with more shards than natural units
// the widest families are halved so idle shards get work, bottoming
// out at one lane per family.
func TestPartitionSplitsWideFamilies(t *testing.T) {
	var cfgs []cache.Config
	for _, sub := range []int{2, 4, 8, 16} {
		cfgs = append(cfgs, partitionCfg(256, 16, sub))
	}
	lists := planShards(MultiPass, cfgs, 2)
	if len(lists) != 2 {
		t.Fatalf("one 4-lane family across 2 shards: got %d lists, want 2", len(lists))
	}
	for li, list := range lists {
		if len(list) != 1 || list[0].kind != familyUnit || len(list[0].idxs) != 2 {
			t.Errorf("list %d: want one 2-lane half-family, got %d units", li, len(list))
		}
	}
	if lists = planShards(MultiPass, cfgs, 16); len(lists) != 4 {
		t.Fatalf("4 lanes across 16 shards: got %d lists, want 4", len(lists))
	}
}

// TestPartitionDeterministic: the plan is a pure function of its
// inputs.
func TestPartitionDeterministic(t *testing.T) {
	for _, cfgs := range [][]cache.Config{partitionSuite(), stackSuite()} {
		for _, eng := range allEngines {
			for _, shards := range []int{1, 3, 7, 8} {
				if a, b := planShards(eng, cfgs, shards), planShards(eng, cfgs, shards); !reflect.DeepEqual(a, b) {
					t.Errorf("%v shards=%d: plan is not deterministic", eng, shards)
				}
			}
		}
	}
}

// TestPartitionBalance: with two shards the LPT packing must not put
// everything on one side.  Under StackDist the stack units and the
// refused configurations' units are packed together, so neither shard
// takes both heaviest kinds.
func TestPartitionBalance(t *testing.T) {
	for _, tc := range []struct {
		eng  Engine
		cfgs []cache.Config
	}{{MultiPass, partitionSuite()}, {StackDist, partitionSuite()}, {StackDist, stackSuite()}} {
		lists := planShards(tc.eng, tc.cfgs, 2)
		if len(lists) != 2 {
			t.Fatalf("%v: got %d lists, want 2", tc.eng, len(lists))
		}
		var load [2]int
		for li, list := range lists {
			for _, u := range list {
				load[li] += u.cost()
			}
		}
		if load[0] == 0 || load[1] == 0 || load[0] > 2*load[1] || load[1] > 2*load[0] {
			t.Errorf("%v: poor balance: loads %d/%d", tc.eng, load[0], load[1])
		}
	}
}

// TestPartitionMixedFanOutMerges: stack siblings of different fan-outs
// -- (2, 0), (4, 1) and (4, 3), the shape the split rule produces --
// sum to the unpartitioned group's statistics byte for byte.
func TestPartitionMixedFanOutMerges(t *testing.T) {
	cfgs := stackLanes(cache.Config{BlockSize: 16, WordSize: 2, CopyBack: true},
		[]int{256, 1024}, []int{1, 4}, []int{2, 16})
	idxs := make([]int, len(cfgs))
	for i := range idxs {
		idxs[i] = i
	}
	unit := func(parts, part uint64) *simUnit {
		u := &simUnit{kind: stackUnit, idxs: idxs, gid: 1, parts: parts, part: part}
		if err := u.build(cfgs, nil); err != nil {
			t.Fatal(err)
		}
		return u
	}
	whole := unit(1, 0)
	sibs := []*simUnit{unit(2, 0), unit(4, 1), unit(4, 3)}

	prof := synth.Workloads(synth.PDP11)[0]
	src, err := synth.NewWordSource(prof, 30000, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]trace.Ref, chunkRefs)
	for {
		n, rerr := trace.ReadChunk(src, buf)
		for _, u := range append([]*simUnit{whole}, sibs...) {
			if err := u.accessBatch(buf[:n], nil, nil, prof.Name, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		if rerr != nil {
			break
		}
	}
	whole.stack.FlushUsage()
	for _, u := range sibs {
		u.stack.FlushUsage()
	}
	for j := range cfgs {
		var sum cache.Stats
		for _, u := range sibs {
			sum.Add(u.stack.Stats(j))
		}
		if want := whole.stack.Stats(j); !reflect.DeepEqual(sum, *want) {
			t.Errorf("%v: merged partitions %+v, unpartitioned %+v", cfgs[j], sum, *want)
		}
	}
}

// planGolden is testdata/plans-v1.json: the MultiPass and Reference
// plans of the three per-engine planners this planner replaced, over
// the benchmark's grids (grid-dense, trace-long, the service-mix pool
// and fresh grids, per suite) and partitionSuite, at shards 1-8 and
// 1024.  Configurations are packed as [net, block, sub, assoc, word,
// replacement, fetch, write, warm, obl, copy-back, seed].
type planGolden struct {
	Grids []struct {
		Name      string                       `json:"name"`
		Cfgs      [][12]int                    `json:"cfgs"`
		MultiPass map[string][]planGoldenShard `json:"multipass"`
		Reference map[string][]planGoldenShard `json:"reference"`
	} `json:"grids"`
}

// planGoldenShard is one shard's units in placement order: families by
// their lanes, reference caches by their index.
type planGoldenShard struct {
	Families [][]int `json:"families,omitempty"`
	Refs     []int   `json:"refs,omitempty"`
}

// TestPartitionMatchesGolden: MultiPass and Reference plans are unit
// for unit, shard for shard, the plans the benchmark's grids ran under
// before the planners were merged, so the work of every benchmark
// workload is unchanged.
func TestPartitionMatchesGolden(t *testing.T) {
	b, err := os.ReadFile("testdata/plans-v1.json")
	if err != nil {
		t.Fatal(err)
	}
	var g planGolden
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	if len(g.Grids) == 0 {
		t.Fatal("golden holds no grids")
	}
	for _, grid := range g.Grids {
		cfgs := make([]cache.Config, len(grid.Cfgs))
		for i, c := range grid.Cfgs {
			cfgs[i] = cache.Config{
				NetSize: c[0], BlockSize: c[1], SubBlockSize: c[2], Assoc: c[3], WordSize: c[4],
				Replacement: cache.Replacement(c[5]), Fetch: cache.Fetch(c[6]), Write: cache.WritePolicy(c[7]),
				WarmStart: c[8] != 0, PrefetchOBL: c[9] != 0, CopyBack: c[10] != 0, RandomSeed: uint64(c[11]),
			}
		}
		for eng, plans := range map[Engine]map[string][]planGoldenShard{MultiPass: grid.MultiPass, Reference: grid.Reference} {
			if len(plans) == 0 {
				t.Fatalf("%s %v: golden holds no plans", grid.Name, eng)
			}
			for key, want := range plans {
				shards, err := strconv.Atoi(key)
				if err != nil {
					t.Fatal(err)
				}
				var got []planGoldenShard
				for _, list := range planShards(eng, cfgs, shards) {
					var s planGoldenShard
					for _, u := range list {
						if u.kind == familyUnit {
							s.Families = append(s.Families, u.idxs)
						} else {
							s.Refs = append(s.Refs, u.idxs[0])
						}
					}
					got = append(got, s)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %v shards=%d: plan differs from the golden\n got %v\nwant %v", grid.Name, eng, shards, got, want)
				}
			}
		}
	}
}
