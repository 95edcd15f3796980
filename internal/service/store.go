// Verified on-disk result store: the durable half of the service's
// result cache.
//
// Each entry (<dir>/cache/<fp>.json) is a JSON envelope -- schema
// version, owning fingerprint, write timestamp, SHA-256 of the payload,
// payload -- written atomically (durable.WriteFile), so readers never
// observe a torn write and a crash never leaves a partial entry.  A
// read re-verifies everything: an entry that fails to parse, carries
// the wrong version or fingerprint, or whose payload checksum
// mismatches is quarantined into <dir>/cache/corrupt/ (never served,
// never silently deleted -- the evidence is kept for inspection) and
// the request is transparently re-simulated.
//
// The store is bounded two ways: entries older than the TTL are
// reclaimed (along with their checkpoint journals -- a stale result's
// resume insurance is stale too), and when the total payload size
// exceeds the cap, least-recently-used entries are evicted -- their
// checkpoint journals are kept, so an evicted fingerprint re-simulates
// cheaply by journal resume.  Access order survives restarts via
// best-effort mtime updates on hits.
//
// In front of the disk sits a memory tier bounded by memBudget.  It
// admits a payload only when the payload is read back from disk and
// verified -- never when it is written -- because in sweep traffic a
// result that is read once tends to be read again, while most fresh
// results never are.  Past the budget the least-recently-read payloads
// leave memory (their disk entries stay).  A memory copy lives on its
// index entry, so TTL expiry, size-cap eviction and quarantine drop it
// together with the entry, and it is never served after its entry is
// gone.
package service

import (
	"container/list"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"subcache/internal/durable"
)

// storeVersion is the cache-entry envelope schema version; entries with
// a different version fail verification and are quarantined.
const storeVersion = 1

// memBudget bounds the payload bytes the memory tier holds.  A typical
// request's result is tens of kilobytes, so the budget holds on the
// order of a thousand repeatedly read fingerprints.
const memBudget = 32 << 20

// storeEnvelope is the on-disk form of one cache entry.
type storeEnvelope struct {
	V           int             `json:"v"`
	FP          string          `json:"fp"`
	WrittenUnix int64           `json:"written_unix_ms"`
	Sum         string          `json:"sum"`
	Payload     json.RawMessage `json:"payload"`
}

// storeStatus classifies one store lookup.
type storeStatus int

const (
	// storeMiss: no entry (never written, or evicted earlier).
	storeMiss storeStatus = iota
	// storeHit: a verified, fresh entry read from disk (and now held
	// by the memory tier, if it fits the budget).
	storeHit
	// storeMemHit: a fresh entry served from the memory tier.
	storeMemHit
	// storeExpired: the entry outlived the TTL and was reclaimed.
	storeExpired
	// storeCorrupt: the entry failed verification and was quarantined.
	storeCorrupt
)

// storeInfo is one entry's in-memory index state.
type storeInfo struct {
	size    int64
	written time.Time
	lastUse time.Time
	// mem is the entry's verified payload while the memory tier holds
	// it (nil otherwise); memElem is its element in the tier's LRU list.
	mem     []byte
	memElem *list.Element
}

// diskStore indexes and bounds the on-disk result cache and its memory
// tier.  All methods are safe for concurrent use; file I/O happens
// under the store mutex, which is fine at request granularity.
type diskStore struct {
	dir      string // the cache directory
	ttl      time.Duration
	maxBytes int64
	memMax   int64 // the memory tier's byte budget (memBudget)

	mu      sync.Mutex
	entries map[string]*storeInfo
	total   int64
	// memLRU orders the memory tier's entries (*storeInfo), most
	// recently read first; memBytes sums their payload lengths.
	memLRU   list.List
	memBytes int64
}

// openStore indexes every result entry already on disk.  Sizes and
// times come from file metadata; full verification happens on access.
// The memory tier starts empty.
func openStore(dir string, ttl time.Duration, maxBytes int64) (*diskStore, error) {
	st := &diskStore{dir: dir, ttl: ttl, maxBytes: maxBytes, memMax: memBudget, entries: make(map[string]*storeInfo)}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: cache: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || filepath.Ext(name) != ".json" {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		fp := strings.TrimSuffix(name, ".json")
		st.entries[fp] = &storeInfo{size: fi.Size(), written: fi.ModTime(), lastUse: fi.ModTime()}
		st.total += fi.Size()
	}
	return st, nil
}

func (st *diskStore) path(fp string) string { return filepath.Join(st.dir, fp+".json") }

// get returns one fresh, verified entry: from the memory tier if it
// holds the entry, otherwise read from disk and fully verified, which
// admits the payload to the memory tier.  An entry past its TTL is
// reclaimed (storeExpired) and one that fails verification is
// quarantined (storeCorrupt), wherever it was found.
func (st *diskStore) get(fp string) ([]byte, storeStatus) {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := time.Now()
	if e, ok := st.entries[fp]; ok && e.mem != nil {
		if st.expiredLocked(e, now) {
			st.dropLocked(fp, e)
			return nil, storeExpired
		}
		e.lastUse = now
		st.memLRU.MoveToFront(e.memElem)
		return e.mem, storeMemHit
	}
	path := st.path(fp)
	b, err := os.ReadFile(path)
	if err != nil {
		if e, ok := st.entries[fp]; ok {
			st.dropIndexLocked(fp, e)
		}
		return nil, storeMiss
	}
	var env storeEnvelope
	if uerr := json.Unmarshal(b, &env); uerr != nil ||
		env.V != storeVersion || env.FP != fp ||
		env.Sum == "" || env.Sum != durable.Sum(env.Payload) {
		st.quarantineLocked(fp, path)
		return nil, storeCorrupt
	}
	e, ok := st.entries[fp]
	if !ok {
		// Written behind our back (another process sharing the dir);
		// index it so eviction sees it.
		e = &storeInfo{size: int64(len(b))}
		st.entries[fp] = e
		st.total += e.size
	}
	e.written = time.UnixMilli(env.WrittenUnix)
	if st.expiredLocked(e, now) {
		st.dropLocked(fp, e)
		return nil, storeExpired
	}
	e.lastUse = now
	// Persist the access order across restarts; best effort.
	os.Chtimes(path, now, now)
	st.admitLocked(e, env.Payload)
	return env.Payload, storeHit
}

// admitLocked puts a verified payload in the memory tier, then evicts
// least-recently-read payloads until the tier fits its budget.  A
// payload larger than the whole budget is not admitted.
func (st *diskStore) admitLocked(e *storeInfo, payload []byte) {
	if int64(len(payload)) > st.memMax {
		return
	}
	e.mem = payload
	e.memElem = st.memLRU.PushFront(e)
	st.memBytes += int64(len(payload))
	for st.memBytes > st.memMax {
		st.forgetLocked(st.memLRU.Back().Value.(*storeInfo))
	}
}

// forgetLocked drops an entry's memory copy, if any; the disk entry
// stays.
func (st *diskStore) forgetLocked(e *storeInfo) {
	if e.memElem == nil {
		return
	}
	st.memLRU.Remove(e.memElem)
	st.memBytes -= int64(len(e.mem))
	e.mem, e.memElem = nil, nil
}

// put atomically writes one verified entry, then applies the TTL and
// size-cap policies.  expired lists entries reclaimed by TTL (their
// checkpoint journals should go too); evicted lists entries removed by
// the LRU size cap (their checkpoint journals stay, as cheap-resume
// insurance).  The entry just written is never evicted by its own put.
func (st *diskStore) put(fp string, payload []byte) (expired, evicted []string, err error) {
	env := storeEnvelope{
		V: storeVersion, FP: fp,
		WrittenUnix: time.Now().UnixMilli(),
		Sum:         durable.Sum(payload),
		Payload:     payload,
	}
	b, err := json.Marshal(env)
	if err != nil {
		return nil, nil, fmt.Errorf("service: cache %s: %w", fp, err)
	}
	if err := durable.WriteFile(st.path(fp), b, 0o644); err != nil {
		return nil, nil, fmt.Errorf("service: cache %s: %w", fp, err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	now := time.Now()
	if e, ok := st.entries[fp]; ok {
		// A rewrite replaces the payload; a stale memory copy must not
		// outlive it.
		st.forgetLocked(e)
		st.total += int64(len(b)) - e.size
		e.size = int64(len(b))
		e.written, e.lastUse = now, now
	} else {
		st.entries[fp] = &storeInfo{size: int64(len(b)), written: now, lastUse: now}
		st.total += int64(len(b))
	}
	// TTL reclamation first (it frees space the LRU pass then may not
	// need), oldest first for determinism.  One scan finds the expired
	// entries; only they are sorted.
	if st.ttl > 0 {
		for cand, e := range st.entries {
			if cand != fp && st.expiredLocked(e, now) {
				expired = append(expired, cand)
			}
		}
		st.sortLocked(expired, func(a, b *storeInfo) bool { return a.written.Before(b.written) })
		for _, cand := range expired {
			st.dropLocked(cand, st.entries[cand])
		}
	}
	// LRU size cap, sorted only when the cap is exceeded.
	if st.maxBytes > 0 && st.total > st.maxBytes {
		fps := make([]string, 0, len(st.entries))
		for cand := range st.entries {
			fps = append(fps, cand)
		}
		st.sortLocked(fps, func(a, b *storeInfo) bool { return a.lastUse.Before(b.lastUse) })
		for _, cand := range fps {
			if st.total <= st.maxBytes {
				break
			}
			if cand == fp {
				continue
			}
			st.dropLocked(cand, st.entries[cand])
			evicted = append(evicted, cand)
		}
	}
	return expired, evicted, nil
}

// sortLocked orders fps by less over their infos (ties broken by
// fingerprint for determinism).
func (st *diskStore) sortLocked(fps []string, less func(a, b *storeInfo) bool) {
	sort.Slice(fps, func(i, j int) bool {
		a, b := st.entries[fps[i]], st.entries[fps[j]]
		if less(a, b) != less(b, a) {
			return less(a, b)
		}
		return fps[i] < fps[j]
	})
}

// expiredLocked applies the TTL policy.
func (st *diskStore) expiredLocked(e *storeInfo, now time.Time) bool {
	return st.ttl > 0 && now.Sub(e.written) > st.ttl
}

// dropLocked removes an entry's file and index state.
func (st *diskStore) dropLocked(fp string, e *storeInfo) {
	os.Remove(st.path(fp))
	st.dropIndexLocked(fp, e)
}

func (st *diskStore) dropIndexLocked(fp string, e *storeInfo) {
	st.forgetLocked(e)
	st.total -= e.size
	delete(st.entries, fp)
}

// quarantineLocked moves a failed entry into corrupt/ under a unique
// name, keeping the evidence out of the serving path.
func (st *diskStore) quarantineLocked(fp, path string) {
	qdir := filepath.Join(st.dir, "corrupt")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		os.Remove(path)
	} else {
		dst := filepath.Join(qdir, fp+".json")
		for i := 1; ; i++ {
			if _, err := os.Lstat(dst); os.IsNotExist(err) {
				break
			}
			dst = filepath.Join(qdir, fmt.Sprintf("%s.json.%d", fp, i))
		}
		if os.Rename(path, dst) != nil {
			os.Remove(path)
		}
	}
	if e, ok := st.entries[fp]; ok {
		st.dropIndexLocked(fp, e)
	}
}

// stats returns the index's entry count and payload byte total.
func (st *diskStore) stats() (entries int, bytes int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.entries), st.total
}
