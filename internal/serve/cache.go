package serve

import (
	"sync"
	"sync/atomic"

	"heteromap/internal/config"
	"heteromap/internal/feature"
)

// cachedPrediction is what the cache stores for one (model version,
// discretized characterization) pair: the answer, and the canonical
// feature.Vector.Key text that a hit serves without rendering it again.
type cachedPrediction struct {
	M    config.M
	Used string
	Key  string
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

// hash mixes the identity a word at a time through 64-bit FNV-1a's
// multiply, without allocating; the cache picks a key's shard and slot
// with it. A multiply carries bits only upward, so the low bits that
// pick a shard would never see a component's sign and exponent, and
// keys whose components are all 0, 0.5 or 1 (low bits all zero) would
// share one shard. murmur3's finalizer folds the high bits in.
func (k CacheKey) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.Model); i++ {
		h = (h ^ uint64(k.Model[i])) * prime64
	}
	h = (h ^ k.Version) * prime64
	for _, w := range k.Feat {
		h = (h ^ w) * prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// Cache is a sharded LRU prediction cache keyed on CacheKey. The finite
// discretized key space is what makes caching predictions worthwhile at
// all: any realistic traffic mix revisits grid points constantly. Get
// and Put allocate nothing once a shard has filled — the serve fast
// path's latency budget is sub-microsecond.
type Cache struct {
	shards []*cacheShard

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// cacheShard is one independently locked LRU. Its entries live in
// slots, linked by index into a circular recency list through the
// sentinel slots[0]: the sentinel's next is the most recent entry and
// its prev the least recent. slots grows up to cap entries, after which
// an insert reuses the evicted entry's slot.
//
// items indexes the slots by CacheKey.hash, not by the key: a map keeps
// a key over 128 bytes, as a CacheKey is, in an allocation of its own
// per insert. A lookup compares the slot's full key, and a key whose
// hash another key already holds (odds of about 2^-64 per pair) takes
// over that key's slot, so a collision costs a miss, never a wrong
// answer.
type cacheShard struct {
	mu    sync.Mutex
	cap   int
	slots []cacheSlot
	items map[uint64]int // slot index by key hash
}

// cacheSlot is one entry and its recency links.
type cacheSlot struct {
	cacheEntry
	prev, next int
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
// It allocates nothing in proportion to capacity: each shard grows as
// it fills.
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
			slots: make([]cacheSlot, 1),
			items: make(map[uint64]int),
		}
	}
	return c
}

// shard returns key's shard and hash.
func (c *Cache) shard(key CacheKey) (*cacheShard, uint64) {
	h := key.hash()
	return c.shards[h%uint64(len(c.shards))], h
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
	s, h := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.items[h]; ok && s.slots[i].key == key {
		s.touch(i)
		return s.slots[i].val, true
	}
	return cachedPrediction{}, false
}

// Put inserts or refreshes a key, evicting the shard's least recently
// used entry when full.
func (c *Cache) Put(key CacheKey, val cachedPrediction) {
	s, h := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.items[h]; ok {
		s.slots[i].cacheEntry = cacheEntry{key: key, val: val}
		s.touch(i)
		return
	}
	i := len(s.slots)
	if len(s.items) < s.cap {
		if i == cap(s.slots) {
			// Double, as append would, but never past the shard's
			// capacity: append would leave up to half the slots unused.
			grown := make([]cacheSlot, i, min(2*i, s.cap+1))
			copy(grown, s.slots)
			s.slots = grown
		}
		s.slots = append(s.slots, cacheSlot{})
	} else {
		i = s.slots[0].prev
		s.unlink(i)
		delete(s.items, s.slots[i].key.hash())
		c.evictions.Add(1)
	}
	s.slots[i].cacheEntry = cacheEntry{key: key, val: val}
	s.items[h] = i
	s.pushFront(i)
}

// touch makes slot i the most recent.
func (s *cacheShard) touch(i int) {
	s.unlink(i)
	s.pushFront(i)
}

func (s *cacheShard) unlink(i int) {
	prev, next := s.slots[i].prev, s.slots[i].next
	s.slots[prev].next = next
	s.slots[next].prev = prev
}

func (s *cacheShard) pushFront(i int) {
	first := s.slots[0].next
	s.slots[i].prev, s.slots[i].next = 0, first
	s.slots[first].prev = i
	s.slots[0].next = i
}

// Len returns the live entry count across shards.
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Stats returns the cumulative hit/miss/eviction counters.
func (c *Cache) Stats() (hits, misses, evictions uint64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// export copies every live entry, each shard's least recently used
// first, so a restore that replays them in order leaves every shard's
// recency order intact.
func (c *Cache) export() []cacheEntry {
	var out []cacheEntry
	for _, s := range c.shards {
		s.mu.Lock()
		for i := s.slots[0].prev; i != 0; i = s.slots[i].prev {
			out = append(out, s.slots[i].cacheEntry)
		}
		s.mu.Unlock()
	}
	return out
}
