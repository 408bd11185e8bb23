package serve

import (
	"fmt"
	"sync"
	"testing"

	"heteromap/internal/config"
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
