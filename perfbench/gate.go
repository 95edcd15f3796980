package main

// The correctness gate: result digests pinned from the Reference engine,
// and the paper-accuracy figures computed from each workload's results.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"

	"subcache/internal/cache"
	"subcache/internal/paperdata"
	"subcache/internal/service"
	"subcache/internal/sweep"
	"subcache/internal/synth"
)

// resultDigest hashes a sweep's full result set: every field of every
// run at every point, floats by their bits, in Points() order.
func resultDigest(res *sweep.Result) string {
	h := sha256.New()
	for _, p := range res.Points() {
		for _, r := range res.Runs[p] {
			fmt.Fprintf(h, "%s|%s|%+v|%x|%x|%x|%d|%d|%d|%d|%d|%d|%d|%x\n",
				p, r.Trace, r.Config,
				math.Float64bits(r.Miss), math.Float64bits(r.Traffic), math.Float64bits(r.Scaled),
				r.Accesses, r.Misses, r.BlockMisses, r.SubBlockMisses,
				r.WordsFetched, r.RedundantLoads, r.SubBlockFills,
				math.Float64bits(r.Utilization))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// servedDigest hashes the fields the service serves for each run, so a
// served body and a sweep.Result can be compared.
func servedDigest(res *service.Result) string {
	h := sha256.New()
	for _, p := range res.Points {
		for _, r := range p.Runs {
			fmt.Fprintf(h, "%s|%s|%x|%x|%x|%d|%d\n", p.Point, r.Workload,
				math.Float64bits(r.Miss), math.Float64bits(r.Traffic), math.Float64bits(r.Scaled),
				r.Accesses, r.Misses)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// servedDigestOf renders a sweep.Result the way the service serves it
// -- its demand-fetch points in Points() order, the served fields --
// and hashes it like servedDigest.
func servedDigestOf(res *sweep.Result) string {
	var sr service.Result
	for _, p := range res.Points() {
		if p.Fetch != cache.DemandSubBlock {
			continue
		}
		pr := service.PointResult{Point: p.String()}
		for _, r := range res.Runs[p] {
			pr.Runs = append(pr.Runs, service.RunResult{
				Workload: r.Trace, Miss: r.Miss, Traffic: r.Traffic, Scaled: r.Scaled,
				Accesses: r.Accesses, Misses: r.Misses,
			})
		}
		sr.Points = append(sr.Points, pr)
	}
	return servedDigest(&sr)
}

func digestKey(workload string, arch synth.Arch) string {
	return workload + "/" + arch.String()
}

// printPins recomputes every pinned digest with the Reference engine,
// the repository's correctness oracle, and prints the table pins.go
// holds.  The sweep workloads pin resultDigest; service-mix pins the
// served fields of its hit pool.
func printPins(w io.Writer) error {
	ctx := context.Background()
	fmt.Fprintln(w, "var pinned = map[string]string{")
	for _, sw := range sweepWorkloads {
		for _, arch := range synth.AllArchs() {
			req := sw.request(arch)
			req.Engine = sweep.Reference
			res, err := sweep.RunContext(ctx, req)
			if err != nil {
				return fmt.Errorf("%s %s: %w", sw.name, arch, err)
			}
			fmt.Fprintf(w, "\t%q: %q,\n", digestKey(sw.name, arch), resultDigest(res))
		}
	}
	for _, arch := range synth.AllArchs() {
		req := poolRequest(arch)
		req.Engine = sweep.Reference
		res, err := sweep.RunContext(ctx, req)
		if err != nil {
			return fmt.Errorf("service-mix pool %s: %w", arch, err)
		}
		fmt.Fprintf(w, "\t%q: %q,\n", digestKey(serviceMix, arch), servedDigestOf(res))
	}
	fmt.Fprintln(w, "}")
	return nil
}

// missLookup returns a workload's measured cross-suite miss ratio at a
// demand-fetch point, if the workload simulated it.
type missLookup func(arch synth.Arch, p sweep.Point) (float64, bool)

// paperAccuracy compares measured miss ratios with every Table 7 cell
// the workload covers: the mean |ln(measured/paper)|, and the share of
// same-suite cell pairs the measurement orders as the paper does.
// Cells are visited in a fixed order, so both figures repeat exactly.
func paperAccuracy(lookup missLookup) (absLogErr, agreement float64, cells int) {
	var sumErr float64
	concordant, pairs := 0, 0
	for _, arch := range synth.AllArchs() {
		var keys []paperdata.Key
		for k := range paperdata.Table7[arch] {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.Net != b.Net {
				return a.Net < b.Net
			}
			if a.Block != b.Block {
				return a.Block > b.Block
			}
			return a.Sub > b.Sub
		})
		type pair struct{ paper, got float64 }
		var series []pair
		for _, k := range keys {
			got, ok := lookup(arch, sweep.Point{Net: k.Net, Block: k.Block, Sub: k.Sub})
			if !ok || got <= 0 {
				continue
			}
			paper := paperdata.Table7[arch][k].Miss
			sumErr += math.Abs(math.Log(got / paper))
			cells++
			series = append(series, pair{paper, got})
		}
		for i := range series {
			for j := i + 1; j < len(series); j++ {
				if series[i].paper == series[j].paper {
					continue
				}
				pairs++
				if (series[i].paper < series[j].paper) == (series[i].got < series[j].got) {
					concordant++
				}
			}
		}
	}
	if cells == 0 || pairs == 0 {
		return 0, 0, cells
	}
	return sumErr / float64(cells), float64(concordant) / float64(pairs), cells
}

// addPaperMetrics reports the two accuracy figures; a workload that
// covers no Table 7 cell is a harness error.
func (b *bench) addPaperMetrics(lookup missLookup) error {
	errAbs, agree, cells := paperAccuracy(lookup)
	if cells == 0 {
		return fmt.Errorf("%s covers no Table 7 cell", b.workload)
	}
	b.rep.add("paper_miss_abs_log_err", "ln", errAbs, 0)
	b.rep.add("paper_order_agreement", "frac", agree, 0)
	fmt.Fprintf(b.out, "paper accuracy over %d Table 7 cells\n", cells)
	return nil
}

// sweepLookup reads demand-point summaries from per-suite results.
func sweepLookup(results map[synth.Arch]*sweep.Result) missLookup {
	return func(arch synth.Arch, p sweep.Point) (float64, bool) {
		res := results[arch]
		if res == nil {
			return 0, false
		}
		s, ok := res.Summaries[p]
		return s.Miss, ok
	}
}

// servedLookup reads demand-point summaries from served bodies.
func servedLookup(results map[synth.Arch]*service.Result) missLookup {
	return func(arch synth.Arch, p sweep.Point) (float64, bool) {
		res := results[arch]
		if res == nil {
			return 0, false
		}
		name := p.String()
		for _, pr := range res.Points {
			if pr.Point == name {
				return pr.Miss, true
			}
		}
		return 0, false
	}
}
