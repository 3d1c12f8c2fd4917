package engine

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"keyedeq/internal/containment"
)

// Verdict is a cached decision for one canonical pair.
type Verdict struct {
	// Holds is the containment/equivalence answer.
	Holds bool
	// Stats records the work the original computation spent, so reports
	// can show what the cache saved.  Carrying the whole Stats (rather
	// than hand-picked fields) means counters added to containment.Stats
	// survive the cache round trip automatically.
	Stats containment.Stats
}

// CacheStats aggregates cache behavior across all shards.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Capacity  int
}

// HitRate returns hits / (hits + misses), or 0 with no lookups.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// verdictCache is a bounded, sharded LRU from canonical pair key to
// Verdict.  Sharding by key hash keeps lock contention off the worker
// pool's hot path; each shard holds an intrusive LRU list.
type verdictCache struct {
	seed      maphash.Seed // drawn per cache: shard placement varies between processes
	shards    []cacheShard
	capacity  int
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	cap     int
}

type cacheEntry struct {
	key string
	v   Verdict
}

// cacheShardCount is a power of two so shard selection is a mask.
const cacheShardCount = 16

// newVerdictCache builds a cache with exactly capacity total entries
// spread over the shards.  Capacity below the shard count is rounded up
// so every shard can hold at least one entry; a remainder that does not
// divide evenly is distributed one entry each to the first shards, so
// shard capacities always sum to the configured capacity (capacity 100
// yields 4 shards of 7 and 12 of 6, not 16 of 6).
func newVerdictCache(capacity int) *verdictCache {
	if capacity < cacheShardCount {
		capacity = cacheShardCount
	}
	c := &verdictCache{
		seed:     maphash.MakeSeed(),
		shards:   make([]cacheShard, cacheShardCount),
		capacity: capacity,
	}
	per := capacity / cacheShardCount
	rem := capacity % cacheShardCount
	for i := range c.shards {
		extra := 0
		if i < rem {
			extra = 1
		}
		c.shards[i] = cacheShard{
			entries: make(map[string]*list.Element),
			order:   list.New(),
			cap:     per + extra,
		}
	}
	return c
}

// shard selects the shard for key.
//
//keyedeq:hot -- shard selection runs on every verdict cache get and put, warm puts at boot included; maphash.String hashes the key in place without allocating
func (c *verdictCache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)&(cacheShardCount-1)]
}

// get returns the cached verdict for key, updating recency and hit
// accounting.
func (c *verdictCache) get(key string) (Verdict, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[key]
	if !ok {
		c.misses.Add(1)
		return Verdict{}, false
	}
	sh.order.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).v, true
}

// put stores a verdict, evicting the least recently used entry of the
// shard when full.
func (c *verdictCache) put(key string, v Verdict) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[key]; ok {
		el.Value.(*cacheEntry).v = v
		sh.order.MoveToFront(el)
		return
	}
	if sh.order.Len() >= sh.cap {
		oldest := sh.order.Back()
		if oldest != nil {
			sh.order.Remove(oldest)
			delete(sh.entries, oldest.Value.(*cacheEntry).key)
			c.evictions.Add(1)
		}
	}
	sh.entries[key] = sh.order.PushFront(&cacheEntry{key: key, v: v})
}

// stats snapshots the aggregate counters.  Capacity is the sum of the
// shard capacities — the number of entries the cache can actually hold
// — so Entries can reach Capacity exactly when every shard is full.
func (c *verdictCache) stats() CacheStats {
	s := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		s.Capacity += sh.cap
		sh.mu.Lock()
		s.Entries += sh.order.Len()
		sh.mu.Unlock()
	}
	return s
}
