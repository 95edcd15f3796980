// Shard planning: which configurations run together, as which kind of
// simulation unit, on which shard worker.  One planner serves every
// engine.  It groups configurations into units, splits the costliest
// units while shards would otherwise sit idle, and packs the units onto
// shards longest-processing-time first.  The plan decides scheduling
// only: every unit consumes the complete ordered access stream (a stack
// unit's set partition filters it), so results are bit-identical under
// any plan.
package sweep

import (
	"sort"

	"subcache/internal/cache"
	"subcache/internal/multipass"
	"subcache/internal/stackdist"
)

// unitKind says what a planned unit is built as.
type unitKind uint8

const (
	// referenceUnit is one configuration on its own cache.Cache.
	referenceUnit unitKind = iota
	// familyUnit is a multipass.Family over configurations that are all
	// MultiPassSafe and share one FamilyKey.
	familyUnit
	// stackUnit is one set partition of a stack group: a
	// stackdist.Engine over Supported configurations sharing one Key.
	stackUnit
)

// planShards groups cfgs into units for eng and packs them onto at most
// shards lists.  The lists hold unbuilt units (see simUnit.build), are
// all non-empty and number min(shards, units after splitting).  Under
// StackDist, configurations stack analysis refuses become multipass
// families or reference caches; under MultiPass, configurations the
// family kernel refuses become reference caches; under Reference, every
// configuration is its own reference cache.  The plan is deterministic.
func planShards(eng Engine, cfgs []cache.Config, shards int) [][]*simUnit {
	units := groupUnits(eng, cfgs)
	for len(units) < shards {
		best := -1
		for i, u := range units {
			if u.splittable(cfgs) && (best < 0 || u.cost() > units[best].cost()) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		units = append(units, units[best].split())
	}
	return packUnits(units, shards)
}

// groupUnits gives each configuration its unit in one pass, in order of
// first appearance.  Stack units get dense group ids from 1 (see
// simUnit.gid) and start unpartitioned.
func groupUnits(eng Engine, cfgs []cache.Config) []*simUnit {
	type groupKey struct {
		kind unitKind
		key  cache.Config
	}
	var units []*simUnit
	byKey := make(map[groupKey]*simUnit)
	gids := 0
	for i, cfg := range cfgs {
		var k groupKey
		switch {
		case eng == StackDist && stackdist.Supported(cfg) == nil:
			k = groupKey{stackUnit, stackdist.Key(cfg)}
		case eng != Reference && cfg.MultiPassSafe():
			k = groupKey{familyUnit, cfg.FamilyKey()}
		default:
			units = append(units, &simUnit{kind: referenceUnit, idxs: []int{i}})
			continue
		}
		u := byKey[k]
		if u == nil {
			u = &simUnit{kind: k.kind, parts: 1}
			if k.kind == stackUnit {
				gids++
				u.gid = gids
			}
			byKey[k] = u
			units = append(units, u)
		}
		u.idxs = append(u.idxs, i)
	}
	return units
}

// cost estimates the unit's per-access simulation work.  A family pays
// one shared tag probe plus one lane update per member; a stack unit
// pays the same for its shared recency walk, divided by its partition
// fan-out since it sees only 1/parts of the block stream; a reference
// cache pays the full probe-and-fill path on its own.
func (u *simUnit) cost() int {
	switch u.kind {
	case familyUnit:
		return 2 + len(u.idxs)
	case stackUnit:
		return max(1, (2+len(u.idxs))/int(u.parts))
	}
	return 3
}

// splittable reports whether split may be applied: a family needs two
// lanes, a stack unit a doubled fan-out every member allows
// (stackdist.MaxParts), and a reference cache never splits.
func (u *simUnit) splittable(cfgs []cache.Config) bool {
	switch u.kind {
	case familyUnit:
		return len(u.idxs) >= 2
	case stackUnit:
		for _, k := range u.idxs {
			if 2*u.parts > stackdist.MaxParts(cfgs[k]) {
				return false
			}
		}
		return true
	}
	return false
}

// split halves u in place and returns the other half.  A family keeps
// its first half of the lanes; any subset of a family is itself a
// family, because lane state is private.  A stack unit (P, p) becomes
// (2P, p) and returns (2P, p+P): the two cover exactly the blocks that
// (P, p) did, so the group's partitions still sum to its whole stream.
func (u *simUnit) split() *simUnit {
	if u.kind == familyUnit {
		mid := len(u.idxs) / 2
		v := &simUnit{kind: familyUnit, idxs: u.idxs[mid:]}
		u.idxs = u.idxs[:mid]
		return v
	}
	v := &simUnit{kind: stackUnit, idxs: u.idxs, gid: u.gid, parts: 2 * u.parts, part: u.part + u.parts}
	u.parts *= 2
	return v
}

// packUnits assigns units longest-processing-time first: heaviest
// first (ties on lowest first index, then lowest partition), each to
// the least-loaded shard (ties on the lowest shard).  Only as many
// shards as units are used, so no list is empty.
func packUnits(units []*simUnit, shards int) [][]*simUnit {
	sort.SliceStable(units, func(i, j int) bool {
		a, b := units[i], units[j]
		if ca, cb := a.cost(), b.cost(); ca != cb {
			return ca > cb
		}
		if a.idxs[0] != b.idxs[0] {
			return a.idxs[0] < b.idxs[0]
		}
		return a.part < b.part
	})
	shards = min(max(shards, 1), len(units))
	lists := make([][]*simUnit, shards)
	loads := make([]int, shards)
	for _, u := range units {
		best := 0
		for s := 1; s < shards; s++ {
			if loads[s] < loads[best] {
				best = s
			}
		}
		loads[best] += u.cost()
		lists[best] = append(lists[best], u)
	}
	return lists
}

// build constructs the unit's engine over its configurations and
// resolves its attributed points (nil when points is nil).
func (u *simUnit) build(cfgs []cache.Config, points []Point) (err error) {
	ucfgs := make([]cache.Config, len(u.idxs))
	for j, k := range u.idxs {
		ucfgs[j] = cfgs[k]
	}
	switch u.kind {
	case familyUnit:
		u.fam, err = multipass.New(ucfgs)
	case stackUnit:
		u.stack, err = stackdist.NewEngine(ucfgs, u.parts, u.part)
	default:
		u.cache, err = cache.New(ucfgs[0])
	}
	if points != nil {
		u.pts = make([]Point, len(u.idxs))
		for j, k := range u.idxs {
			u.pts[j] = points[k]
		}
	}
	return err
}
