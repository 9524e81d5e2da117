package daemon

import (
	"fmt"
	"sync"

	"hpcqc/internal/qir"
)

// Per-partition program cache: a partition that just ran a program has warm
// state for it (calibration for that pulse family, compiled circuit, duration
// estimate), so a dispatch of the same program skips the cold setup cost.
// The cache key is the canonical program fingerprint (see fingerprint below),
// computed once per distinct payload inside the process-wide decode memo so
// the dispatch hot path never hashes bytes.
//
// The structure is a bounded LRU built from a map and an intrusive
// doubly-linked list over a preallocated node arena — every operation
// (probe, promote, insert, evict) is O(1) with no scans and no per-entry
// allocation. That shape is a hard requirement, not taste: the router probes
// the cache once per eligible partition per pick on the replay hot path, and
// the reference system this mirrors (inference-sim's prefix-cache affinity)
// documents its O(n) LRU scan as a top wall-clock hotspot.

// fingerprint is the canonical program hash: FNV-1a 64 over the serialized
// payload bytes. Program payloads are canonical in this codebase (the load
// generators and runtime marshal a program one way), so byte identity is
// program identity. Zero is reserved as "no fingerprint"; the astronomically
// unlikely natural zero is remapped.
func fingerprint(payload []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range payload {
		h ^= uint64(b)
		h *= prime64
	}
	if h == 0 {
		h = offset64
	}
	return h
}

// Cache outcome labels, interned so the dispatch hot path never builds
// strings: Job.Cache carries the bare outcome, trace spans the key=value
// annotation.
const (
	cacheHit        = "hit"
	cacheMiss       = "miss"
	cacheHitDetail  = "cache=hit"
	cacheMissDetail = "cache=miss"
)

// cacheDetail renders a job's cache outcome as a span annotation; empty when
// caching is disabled, so cache-less traces are unchanged.
func cacheDetail(outcome string) string {
	switch outcome {
	case cacheHit:
		return cacheHitDetail
	case cacheMiss:
		return cacheMissDetail
	}
	return ""
}

// lruNode is one arena slot of the intrusive list. prev/next are arena
// indices (-1 terminates), never pointers, so the whole cache is two
// allocations (arena + map) for its entire lifetime.
type lruNode struct {
	hash       uint64
	prev, next int32
}

// progLRU is one partition's bounded program cache. All methods are
// goroutine-safe; the daemon probes from routing and mutates from dispatch.
type progLRU struct {
	mu     sync.Mutex
	byHash map[uint64]int32
	nodes  []lruNode
	head   int32 // most recently used
	tail   int32 // least recently used, evicted first
	free   int32 // free-slot list while the cache fills

	hits, misses, evictions uint64
}

// newProgLRU returns a cache bounded to capacity entries, or nil when the
// capacity disables caching.
func newProgLRU(capacity int) *progLRU {
	if capacity <= 0 {
		return nil
	}
	c := &progLRU{
		byHash: make(map[uint64]int32, capacity),
		nodes:  make([]lruNode, capacity),
		head:   -1,
		tail:   -1,
	}
	for i := range c.nodes {
		c.nodes[i].next = int32(i + 1)
	}
	c.nodes[capacity-1].next = -1
	return c
}

// unlink removes node i from the recency list. Caller holds mu.
func (c *progLRU) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev >= 0 {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next >= 0 {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

// pushFront makes node i the most recently used. Caller holds mu.
func (c *progLRU) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev = -1
	n.next = c.head
	if c.head >= 0 {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

// contains reports whether hash is warm without promoting it or touching the
// counters — the router's side-effect-free probe, so scoring a partition can
// never perturb the cache state another pick or dispatch would observe.
func (c *progLRU) contains(hash uint64) bool {
	if c == nil || hash == 0 {
		return false
	}
	c.mu.Lock()
	_, ok := c.byHash[hash]
	c.mu.Unlock()
	return ok
}

// touch records a dispatch of hash: a warm entry is promoted to most recently
// used (hit), a cold one is inserted, evicting the least recently used entry
// when full. The hit path is a map probe plus pointer surgery — zero
// allocations, enforced by benchmark and an AllocsPerRun test.
func (c *progLRU) touch(hash uint64) (hit, evicted bool) {
	if c == nil || hash == 0 {
		return false, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.byHash[hash]; ok {
		c.hits++
		if c.head != i {
			c.unlink(i)
			c.pushFront(i)
		}
		return true, false
	}
	c.misses++
	var i int32
	if c.free >= 0 {
		i = c.free
		c.free = c.nodes[i].next
	} else {
		i = c.tail
		delete(c.byHash, c.nodes[i].hash)
		c.unlink(i)
		c.evictions++
		evicted = true
	}
	c.nodes[i].hash = hash
	c.byHash[hash] = i
	c.pushFront(i)
	return false, evicted
}

// CacheStats is the exported snapshot of one partition's program cache — the
// payload behind the devices endpoint's cache column.
type CacheStats struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	Size      int     `json:"size"`
	Capacity  int     `json:"capacity"`
	HitRate   float64 `json:"hit_rate"`
}

// stats snapshots the counters; nil when the cache is disabled.
func (c *progLRU) stats() *CacheStats {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      len(c.byHash),
		Capacity:  len(c.nodes),
	}
	if total := st.Hits + st.Misses; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}

// The decode-once program cache: payload bytes → decoded program plus its
// canonical fingerprint. Replay and load generation submit a handful of
// distinct payloads millions of times — across many short-lived daemon
// instances — so the cache is process-wide: a what-if sweep decodes (and
// hashes) each canonical payload once, not once per policy combination.
// Decoding is a pure function of the bytes, and validation verdicts are
// memoized separately in qir keyed by the full spec contents, so sharing
// across daemons cannot leak one fleet's limits into another's. Lookup by
// string(payload) is allocation-free, which is what keeps the hot replay
// path free of per-job hashing: the fingerprint rides the same memo.
type progEntry struct {
	prog *qir.Program
	hash uint64
}

var (
	progMu    sync.Mutex
	progCache = make(map[string]progEntry)
	progBytes int // payload bytes progCache holds as keys
)

// progCacheBytes bounds the decode cache by the payload bytes it holds, not
// by how many programs: a working set of any count under the budget is never
// dropped, and a stream of unique payloads resets the cache wholesale instead
// of growing process memory (a served payload is at most maxBodyBytes, a
// quarter of the budget). A decoded program is about 2.3× its payload (a
// loadgen program: 341 B of JSON, ≈ 776 B decoded), so the cache holds at
// most ≈ 13 MiB live — ≈ 12 000 programs of that shape.
const progCacheBytes = 4 << 20

// cachedProgram decodes a payload through the process-wide cache, returning
// the shared immutable program and its canonical fingerprint.
func cachedProgram(payload []byte) (*qir.Program, uint64, error) {
	progMu.Lock()
	e, ok := progCache[string(payload)]
	progMu.Unlock()
	if ok {
		return e.prog, e.hash, nil
	}
	prog := new(qir.Program)
	if err := prog.UnmarshalJSON(payload); err != nil {
		return nil, 0, fmt.Errorf("daemon: decoding program: %w", err)
	}
	e = progEntry{prog: prog, hash: fingerprint(payload)}
	progMu.Lock()
	defer progMu.Unlock()
	// Another submit of the same payload may have decoded it meanwhile: keep
	// the first, so the byte count stays exact and every caller shares one
	// program.
	if held, ok := progCache[string(payload)]; ok {
		return held.prog, held.hash, nil
	}
	if progBytes+len(payload) > progCacheBytes {
		progCache, progBytes = make(map[string]progEntry), 0
	}
	progCache[string(payload)] = e
	progBytes += len(payload)
	return e.prog, e.hash, nil
}
