package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"heteromap/internal/config"
	"heteromap/internal/feature"
)

// cachedPrediction is what the cache stores for one (model version,
// discretized characterization) pair.
type cachedPrediction struct {
	M    config.M
	Used string
}

// CacheKey identifies one cached prediction: the answering model's name
// and version plus the binary feature key. It is a plain comparable
// value — building one from an admitted request is allocation-free,
// which is what lets the cache-hit fast path answer without touching
// the heap (the old string key cost ~19 allocs to render). Hot-swapped
// model versions can never serve each other's entries because Version
// is part of the identity.
type CacheKey struct {
	Model   string
	Version uint64
	Feat    feature.BinaryKey
}

// hash mixes every identity component through 64-bit FNV-1a without
// allocating; the cache uses it only for shard selection.
func (k CacheKey) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.Model); i++ {
		h = (h ^ uint64(k.Model[i])) * prime64
	}
	for s := 0; s < 64; s += 8 {
		h = (h ^ uint64(byte(k.Version>>s))) * prime64
	}
	for _, bits := range k.Feat {
		for s := 0; s < 64; s += 8 {
			h = (h ^ uint64(byte(bits>>s))) * prime64
		}
	}
	return h
}

// Cache is a sharded LRU prediction cache keyed on CacheKey. The finite
// discretized key space is what makes caching predictions worthwhile at
// all: any realistic traffic mix revisits grid points constantly. Get
// and Put are allocation-free on the hit path — the serve fast path's
// latency budget is sub-microsecond.
type Cache struct {
	shards []*cacheShard

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// cacheShard is one independently locked LRU.
type cacheShard struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent
	items map[CacheKey]*list.Element
}

// cacheEntry is one cache entry, in its shard and in snapshot form.
type cacheEntry struct {
	key CacheKey
	val cachedPrediction
}

// cacheShards is the shard count of a server's prediction cache.
const cacheShards = 16

// NewCache builds a cache holding up to capacity entries across the
// given number of shards (both floored at 1; capacity is split evenly).
func NewCache(capacity, shards int) *Cache {
	if shards < 1 {
		shards = 1
	}
	if capacity < shards {
		capacity = shards
	}
	c := &Cache{shards: make([]*cacheShard, shards)}
	per := capacity / shards
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			cap:   per,
			ll:    list.New(),
			items: make(map[CacheKey]*list.Element),
		}
	}
	return c
}

func (c *Cache) shard(key CacheKey) *cacheShard {
	return c.shards[key.hash()%uint64(len(c.shards))]
}

// Get looks a key up, counting the hit or miss.
func (c *Cache) Get(key CacheKey) (cachedPrediction, bool) {
	val, ok := c.lookup(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return val, ok
}

func (c *Cache) lookup(key CacheKey) (cachedPrediction, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).val, true
	}
	return cachedPrediction{}, false
}

// Put inserts or refreshes a key, evicting the shard's least recently
// used entry when full.
func (c *Cache) Put(key CacheKey, val cachedPrediction) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&cacheEntry{key: key, val: val})
	if s.ll.Len() > s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// Len returns the live entry count across shards.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats returns the cumulative hit/miss/eviction counters.
func (c *Cache) Stats() (hits, misses, evictions uint64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// export copies every live entry, least recently used first, so a
// restore that replays them in order leaves the recency order intact.
func (c *Cache) export() []cacheEntry {
	var out []cacheEntry
	for _, s := range c.shards {
		s.mu.Lock()
		for el := s.ll.Back(); el != nil; el = el.Prev() {
			out = append(out, *el.Value.(*cacheEntry))
		}
		s.mu.Unlock()
	}
	return out
}
