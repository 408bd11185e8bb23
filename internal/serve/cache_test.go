package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"heteromap/internal/config"
	"heteromap/internal/feature"
)

// ck builds a distinct CacheKey from a label; cache unit tests only need
// distinct identities, not realistic feature vectors.
func ck(label string) CacheKey {
	return CacheKey{Model: label}
}

func TestCacheHitMissEvict(t *testing.T) {
	c := NewCache(4, 1) // single shard: deterministic LRU order
	m := config.M{Cores: 7}

	if _, ok := c.Get(ck("a")); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(ck("a"), cachedPrediction{M: m, Used: "tree"})
	got, ok := c.Get(ck("a"))
	if !ok || got.M != m || got.Used != "tree" {
		t.Fatalf("bad hit: %+v ok=%v", got, ok)
	}

	for i := 0; i < 4; i++ {
		c.Put(ck(fmt.Sprintf("fill%d", i)), cachedPrediction{})
	}
	// "a" was recently used before the fills; the first fill is LRU now,
	// and inserting 4 new keys into cap-4 must have evicted exactly one.
	hits, misses, evictions := c.Stats()
	if evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
}

func TestCacheLRUOrder(t *testing.T) {
	c := NewCache(2, 1)
	c.Put(ck("old"), cachedPrediction{})
	c.Put(ck("mid"), cachedPrediction{})
	if _, ok := c.Get(ck("old")); !ok { // refresh "old"; "mid" becomes LRU
		t.Fatal("old missing")
	}
	c.Put(ck("new"), cachedPrediction{})
	if _, ok := c.Get(ck("mid")); ok {
		t.Fatal("mid should have been evicted")
	}
	if _, ok := c.Get(ck("old")); !ok {
		t.Fatal("old should have survived")
	}
}

func TestCachePutRefreshesExisting(t *testing.T) {
	c := NewCache(2, 1)
	c.Put(ck("k"), cachedPrediction{Used: "v1"})
	c.Put(ck("k"), cachedPrediction{Used: "v2"})
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	got, _ := c.Get(ck("k"))
	if got.Used != "v2" {
		t.Fatalf("Used = %q, want v2", got.Used)
	}
}

// Concurrent mixed load across shards must be safe (-race) and keep
// counters coherent: hits+misses equals the number of Gets.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(128, 8)
	const goroutines, ops = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				label := fmt.Sprintf("k%d", (g*31+i)%200)
				key := ck(label)
				if i%3 == 0 {
					c.Put(key, cachedPrediction{Used: label})
				} else {
					if v, ok := c.Get(key); ok && v.Used != label {
						t.Errorf("key %s returned value %q", label, v.Used)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses, _ := c.Stats()
	getsPerGoroutine := 0
	for i := 0; i < ops; i++ {
		if i%3 != 0 {
			getsPerGoroutine++
		}
	}
	wantGets := uint64(goroutines * getsPerGoroutine)
	if hits+misses != wantGets {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, wantGets)
	}
}

// gridKey is the cache key of a random characterization on the default
// grid whose components take only the given values.
func gridKey(rng *rand.Rand, values []float64) CacheKey {
	var f feature.Vector
	for i := range f {
		f[i] = values[rng.Intn(len(values))]
	}
	return CacheKey{Model: "tree", Version: 1, Feat: f.Binary()}
}

// Once a shard is full, a Put that evicts reuses the evicted entry's
// slot, so it allocates nothing; neither does a hit.
func TestCachePutFullShardAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := make([]CacheKey, 5000)
	for i := range keys {
		keys[i] = gridKey(rng, []float64{0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5})
	}
	c := NewCache(64, 1)
	for _, k := range keys[:64] {
		c.Put(k, cachedPrediction{Used: "tree"})
	}
	next := 64
	if n := testing.AllocsPerRun(1000, func() {
		c.Put(keys[next], cachedPrediction{Used: "tree"})
		next++
	}); n != 0 {
		t.Fatalf("Put on a full shard allocated %.1f times per call, want 0", n)
	}
	if _, _, ev := c.Stats(); ev < 1000 {
		t.Fatalf("%d evictions, want every measured Put to evict", ev)
	}
	last := keys[next-1]
	if n := testing.AllocsPerRun(1000, func() { c.Get(last) }); n != 0 {
		t.Fatalf("Get allocated %.1f times per call, want 0", n)
	}
}

// export lists each shard's least recent entry first, so replaying it
// into an empty cache, as a restart's restore does, rebuilds every
// shard's recency order.
func TestCacheExportRestoreRecency(t *testing.T) {
	c := NewCache(4, 1)
	for _, l := range []string{"a", "b", "c"} {
		c.Put(ck(l), cachedPrediction{Used: l})
	}
	c.Get(ck("a"))
	var order []string
	for _, e := range c.export() {
		order = append(order, e.val.Used)
	}
	if got := strings.Join(order, ","); got != "b,c,a" {
		t.Fatalf("export order %s, want b,c,a (least recent first)", got)
	}

	rng := rand.New(rand.NewSource(9))
	grid := []float64{0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.6000000000000001, 0.7000000000000001, 0.8, 0.9, 1}
	c = NewCache(64, 4)
	for i := 0; i < 200; i++ {
		k := gridKey(rng, grid)
		c.Put(k, cachedPrediction{Used: fmt.Sprint(i)})
		if i%3 == 0 {
			c.Get(k)
		}
	}
	exported := c.export()
	restored := NewCache(64, 4)
	for _, e := range exported {
		restored.Put(e.key, e.val)
	}
	if !reflect.DeepEqual(restored.export(), exported) {
		t.Fatal("a restored cache exports a different order")
	}
	// The next insert into each shard evicts its least recent entry in
	// both caches alike.
	for i := 0; i < 40; i++ {
		k := gridKey(rng, grid)
		c.Put(k, cachedPrediction{})
		restored.Put(k, cachedPrediction{})
	}
	if !reflect.DeepEqual(restored.export(), c.export()) {
		t.Fatal("a restored cache evicts in a different order")
	}
}

// 4,096 distinct grid keys spread within ±25% of an even split over a
// server's shards, including keys whose components are all 0, 0.5 or 1:
// their words differ only in the high bits, which a shard index taken
// from the low bits of an unfolded multiply never sees.
func TestCacheShardSpread(t *testing.T) {
	for _, tc := range []struct {
		name   string
		values []float64
	}{
		{"grid", []float64{0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.6000000000000001, 0.7000000000000001, 0.8, 0.9, 1}},
		{"halves", []float64{0, 0.5, 1}},
	} {
		rng := rand.New(rand.NewSource(13))
		seen := map[CacheKey]bool{}
		var counts [cacheShards]int
		for len(seen) < 4096 {
			k := gridKey(rng, tc.values)
			if !seen[k] {
				seen[k] = true
				counts[k.hash()%cacheShards]++
			}
		}
		even := 4096 / cacheShards
		for shard, n := range counts {
			if n < even*3/4 || n > even*5/4 {
				t.Errorf("%s: shard %d holds %d of 4096 keys, want %d±25%% (all: %v)", tc.name, shard, n, even, counts)
				break
			}
		}
	}
}

// A key whose hash indexes another key's slot misses, and a Put of it
// takes the slot over: a hash collision costs a miss, never a wrong
// answer. A real 64-bit collision is too rare to find, so the test
// points b's hash at a's slot.
func TestCacheHashCollisionMisses(t *testing.T) {
	c := NewCache(4, 1)
	a, b := ck("a"), ck("b")
	c.Put(a, cachedPrediction{Used: "a"})
	s := c.shards[0]
	s.items[b.hash()] = s.items[a.hash()]
	delete(s.items, a.hash())
	if v, ok := c.Get(b); ok {
		t.Fatalf("b served %q, a's entry", v.Used)
	}
	c.Put(b, cachedPrediction{Used: "b"})
	if v, ok := c.Get(b); !ok || v.Used != "b" {
		t.Fatalf("b after its Put: %q ok=%v", v.Used, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1: b took a's slot", c.Len())
	}
}
