package multipass_test

// Allocation regression for the family kernel: the steady-state access
// path (hits, misses, fills across every lane) must never touch the
// heap, or each simulated reference in a sweep pays for it.

import (
	"runtime"
	"testing"

	"subcache/internal/cache"
	"subcache/internal/kernelbench"
	"subcache/internal/multipass"
	"subcache/internal/trace"
)

func TestFamilyAccessNoAllocs(t *testing.T) {
	base := cache.Config{NetSize: 256, BlockSize: 32, Assoc: 1, WordSize: 2}
	var cfgs []cache.Config
	for _, sub := range []int{2, 8, 32} {
		c := base
		c.SubBlockSize = sub
		cfgs = append(cfgs, c)
	}
	lf := base
	lf.SubBlockSize = 4
	lf.Fetch = cache.LoadForward
	cfgs = append(cfgs, lf)

	fam, err := multipass.New(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	refs := [2]trace.Ref{
		{Addr: 0x0000, Kind: trace.Read, Size: 2},
		{Addr: 0x1000, Kind: trace.Read, Size: 2}, // same set, conflicting tag
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		fam.Access(refs[i&1]) // alternating conflict misses
		fam.Access(refs[i&1]) // plus a hit
		i++
	}); n != 0 {
		t.Errorf("family access path allocates %.1f per round, want 0", n)
	}

	// The multipass-safe configuration axes -- write-through and
	// copy-back, write-ignore, and the FIFO/Random allocate fallback of
	// the batch loop -- must stay 0-alloc on both entry points, batch
	// included: its packed scratch is allocated by the first batch
	// (AllocsPerRun's warm-up call) and reused by every later one.
	variants := []struct {
		name   string
		mutate func(*cache.Config)
	}{
		{"copy-back", func(c *cache.Config) { c.CopyBack = true }},
		{"write-ignore", func(c *cache.Config) { c.Write = cache.WriteIgnore }},
		{"random", func(c *cache.Config) { c.Replacement = cache.Random; c.RandomSeed = 99 }},
		{"fifo", func(c *cache.Config) { c.Replacement = cache.FIFO }},
	}
	for _, v := range variants {
		vcfgs := make([]cache.Config, len(cfgs))
		for j := range cfgs {
			vcfgs[j] = cfgs[j]
			v.mutate(&vcfgs[j])
		}
		vfam, err := multipass.New(vcfgs)
		if err != nil {
			t.Fatal(err)
		}
		batch := []trace.Ref{
			{Addr: 0x0000, Kind: trace.Read, Size: 2},
			{Addr: 0x0002, Kind: trace.Write, Size: 2},
			{Addr: 0x1000, Kind: trace.Write, Size: 2}, // conflicting write miss
			{Addr: 0x2000, Kind: trace.IFetch, Size: 2},
		}
		if n := testing.AllocsPerRun(1000, func() { vfam.AccessBatch(batch) }); n != 0 {
			t.Errorf("%s batch path allocates %.1f per chunk, want 0", v.name, n)
		}
	}
}

// TestNewAllocatesOnlyLaneState bounds what constructing a family
// costs: its tag arrays and lane tables, with no per-family chunk
// scratch.  The sweep executors build one family per planned unit and
// feed it through AccessBatchPacked, so a trace.ChunkRefs-word pack
// buffer allocated here would be 64 KB per family that nothing reads.
func TestNewAllocatesOnlyLaneState(t *testing.T) {
	const limit = 16 << 10
	cfgs := kernelbench.Geometry()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fam, err := multipass.New(cfgs)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= limit {
		t.Errorf("multipass.New on the %d-lane %d B geometry allocated %d bytes, want < %d",
			len(cfgs), cfgs[0].NetSize, n, limit)
	}
	runtime.KeepAlive(fam)
}
