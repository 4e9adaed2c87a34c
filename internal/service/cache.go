package service

import (
	"container/list"
	"sync"

	"bump/internal/sim"
)

// CacheStats reports result-cache behaviour (published on /metrics as
// the bump_cache_* series).
type CacheStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// resultCache is an LRU of completed run results keyed by config hash.
// A hit means a previously executed configuration: the service returns
// the stored result without re-running the simulation.
type resultCache struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used
	entries   map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	hash   string
	result sim.Result
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// get returns the cached result for hash, refreshing its recency.
func (c *resultCache) get(hash string) (sim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[hash]
	if !ok {
		c.misses++
		return sim.Result{}, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).result, true
}

// put inserts or refreshes a result, evicting the least recently used
// entry past capacity.
func (c *resultCache) put(hash string, r sim.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[hash]; ok {
		el.Value.(*cacheEntry).result = r
		c.order.MoveToFront(el)
		return
	}
	c.entries[hash] = c.order.PushFront(&cacheEntry{hash: hash, result: r})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).hash)
		c.evictions++
	}
}

func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.order.Len(),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
