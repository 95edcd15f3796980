package multipass_test

import (
	"reflect"
	"testing"

	"subcache/internal/cache"
	"subcache/internal/multipass"
)

// groupCfg builds a MultiPassSafe grid configuration.
func groupCfg(net, block, sub int) cache.Config {
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

// groupSuite is a representative mix: three families of different
// widths plus two configurations the kernel cannot host.
func groupSuite() []cache.Config {
	var cfgs []cache.Config
	for _, sub := range []int{2, 4, 8, 16} {
		cfgs = append(cfgs, groupCfg(256, 16, sub))
	}
	for _, sub := range []int{2, 4} {
		cfgs = append(cfgs, groupCfg(64, 8, sub))
	}
	cfgs = append(cfgs, groupCfg(1024, 32, 8))
	obl := groupCfg(256, 16, 8)
	obl.PrefetchOBL = true
	cfgs = append(cfgs, obl)
	wna := groupCfg(64, 8, 2)
	wna.Write = cache.WriteNoAllocate
	return append(cfgs, wna)
}

// TestPartitionCoversEveryIndex: Group places each configuration index
// exactly once, in a non-empty family or in the rest.  (The shard
// planner's own coverage checks live in internal/sweep.)
func TestPartitionCoversEveryIndex(t *testing.T) {
	cfgs := groupSuite()
	families, rest := multipass.Group(cfgs)
	if len(families) != 3 || len(rest) != 2 {
		t.Fatalf("got %d families and %d rest, want 3 and 2", len(families), len(rest))
	}
	seen := make(map[int]int)
	for _, fam := range families {
		if len(fam) == 0 {
			t.Error("empty family")
		}
		for _, k := range fam {
			seen[k]++
		}
	}
	for _, k := range rest {
		seen[k]++
	}
	for i := range cfgs {
		if seen[i] != 1 {
			t.Fatalf("index %d grouped %d times", i, seen[i])
		}
	}
}

// TestPartitionFamilyInvariants: every family Group forms is a real
// single-pass family -- all members MultiPassSafe and sharing one
// FamilyKey -- and every rest index is a configuration the kernel
// cannot host.
func TestPartitionFamilyInvariants(t *testing.T) {
	cfgs := groupSuite()
	families, rest := multipass.Group(cfgs)
	for _, fam := range families {
		key := cfgs[fam[0]].FamilyKey()
		for _, k := range fam {
			if !cfgs[k].MultiPassSafe() {
				t.Errorf("non-safe config %d grouped into a family", k)
			}
			if cfgs[k].FamilyKey() != key {
				t.Errorf("family mixes keys at index %d", k)
			}
		}
	}
	for _, k := range rest {
		if cfgs[k].MultiPassSafe() {
			t.Errorf("safe config %d left out of every family", k)
		}
	}
}

// TestPartitionSplitsWideFamilies: the shard planner halves wide
// families to fill idle shards, which is sound only because any subset
// of a family is itself a family whose lanes count exactly what they
// count in the whole.  Split a four-lane family into halves and require
// every lane's full Stats to match.
func TestPartitionSplitsWideFamilies(t *testing.T) {
	var cfgs []cache.Config
	for _, sub := range []int{2, 4, 8, 16} {
		cfgs = append(cfgs, groupCfg(256, 16, sub))
	}
	refs := makeTrace(7, 20000, 0x3fff, 2)
	run := func(cfgs []cache.Config) *multipass.Family {
		fam, err := multipass.New(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		fam.AccessBatch(refs)
		fam.FlushUsage()
		return fam
	}
	whole := run(cfgs)
	for h, half := range [][]cache.Config{cfgs[:2], cfgs[2:]} {
		fam := run(half)
		for j := range half {
			if got, want := fam.Stats(j), whole.Stats(2*h+j); !reflect.DeepEqual(got, want) {
				t.Errorf("%v: half-family lane diverges from the whole\n got:  %+v\n want: %+v", half[j], got, want)
			}
		}
	}
}

// TestPartitionDeterministic: grouping is a pure function of its
// inputs.
func TestPartitionDeterministic(t *testing.T) {
	cfgs := groupSuite()
	fa, ra := multipass.Group(cfgs)
	fb, rb := multipass.Group(cfgs)
	if !reflect.DeepEqual(fa, fb) || !reflect.DeepEqual(ra, rb) {
		t.Error("Group is not deterministic")
	}
}
