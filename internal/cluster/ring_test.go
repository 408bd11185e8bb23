package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"heteromap/internal/feature"
)

func ringNodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("10.0.0.%d:8080", i+1)
	}
	return out
}

func TestRingCanonicalForNodeSet(t *testing.T) {
	nodes := ringNodes(5)
	shuffled := append([]string(nil), nodes...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	a, b := New(nodes, 0), New(shuffled, 0)
	if !reflect.DeepEqual(a.Nodes(), b.Nodes()) {
		t.Fatalf("node order leaked into the ring: %v vs %v", a.Nodes(), b.Nodes())
	}
	for i := 0; i < 1000; i++ {
		h := rand.New(rand.NewSource(int64(i))).Uint64()
		if ga, gb := a.Lookup(h, 2), b.Lookup(h, 2); !reflect.DeepEqual(ga, gb) {
			t.Fatalf("hash %#x placed differently: %v vs %v", h, ga, gb)
		}
	}
}

func TestRingDedupAndEmptyNames(t *testing.T) {
	r := New([]string{"a", "", "b", "a", "b"}, 8)
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if !r.Has("a") || !r.Has("b") || r.Has("") {
		t.Fatalf("membership wrong: %v", r.Nodes())
	}
}

func TestRingLookupDistinctPreferenceOrder(t *testing.T) {
	r := New(ringNodes(4), 0)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		h := rng.Uint64()
		got := r.Lookup(h, 3)
		if len(got) != 3 {
			t.Fatalf("Lookup returned %d nodes, want 3", len(got))
		}
		seen := map[string]bool{}
		for _, n := range got {
			if seen[n] {
				t.Fatalf("duplicate node %q in replica group %v", n, got)
			}
			seen[n] = true
			if !r.Has(n) {
				t.Fatalf("lookup returned off-ring node %q", n)
			}
		}
		// The primary must be stable under a larger n: growing the group
		// only appends replicas.
		if wide := r.Lookup(h, 4); wide[0] != got[0] || wide[1] != got[1] {
			t.Fatalf("replica-group prefix unstable: %v vs %v", got, wide)
		}
	}
	// n beyond Len returns every node exactly once.
	if got := r.Lookup(42, 100); len(got) != 4 {
		t.Fatalf("over-wide lookup returned %d nodes, want 4", len(got))
	}
}

func TestRingEmptyAndZeroN(t *testing.T) {
	empty := New(nil, 0)
	if got := empty.Lookup(1, 2); got != nil {
		t.Fatalf("empty ring lookup = %v, want nil", got)
	}
	r := New(ringNodes(2), 0)
	if got := r.Lookup(1, 0); got != nil {
		t.Fatalf("n=0 lookup = %v, want nil", got)
	}
}

func TestRingWithWithout(t *testing.T) {
	r := New(ringNodes(3), 0)
	if r.With(ringNodes(3)[0]) != r {
		t.Fatal("With(existing) should return the receiver")
	}
	if r.Without("absent") != r {
		t.Fatal("Without(absent) should return the receiver")
	}
	grown := r.With("10.0.0.9:8080")
	if grown.Len() != 4 || !grown.Has("10.0.0.9:8080") {
		t.Fatalf("With did not add: %v", grown.Nodes())
	}
	if r.Len() != 3 {
		t.Fatal("With mutated the receiver")
	}
	shrunk := grown.Without("10.0.0.9:8080")
	if !reflect.DeepEqual(shrunk.Nodes(), r.Nodes()) {
		t.Fatalf("Without round-trip mismatch: %v vs %v", shrunk.Nodes(), r.Nodes())
	}
}

// Removing 1 of N nodes must remap only the removed node's keys — and
// the removed node owns ~1/N of the keyspace, so the observed remap
// fraction stays near 1/N. This is the property that makes failover
// cheap: a dead node's load spreads without reshuffling live nodes'
// cache-hot keyspace slices.
func TestRingBoundedRebalanceProperty(t *testing.T) {
	const keys = 20000
	for _, n := range []int{3, 5, 8} {
		nodes := ringNodes(n)
		full := New(nodes, 0)
		victim := nodes[n/2]
		reduced := full.Without(victim)
		moved, ownedByVictim := 0, 0
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < keys; i++ {
			h := rng.Uint64()
			before := full.Lookup(h, 1)[0]
			after := reduced.Lookup(h, 1)[0]
			if before == victim {
				ownedByVictim++
				continue // these must move; counted separately
			}
			if before != after {
				moved++
			}
		}
		if moved != 0 {
			t.Fatalf("n=%d: %d keys not owned by the removed node changed owners", n, moved)
		}
		frac := float64(ownedByVictim) / keys
		// ~1/n with slack for vnode placement variance.
		lo, hi := 0.4/float64(n), 1.9/float64(n)
		if frac < lo || frac > hi {
			t.Fatalf("n=%d: removed node owned %.3f of keys, want within [%.3f, %.3f] (~1/N)",
				n, frac, lo, hi)
		}
	}
}

// Ring placement and feature.Vector.ShardHash share one hash convention:
// the ring's string hash of the canonical discretized key must place a
// vector where Lookup(ShardHash) does, so every process places it
// identically.
func TestRingAgreesWithShardHash(t *testing.T) {
	r := New(ringNodes(4), 0)
	v := feature.Vector{0.12, 0.34, 0.56, 0.78, 0.9, 0.1, 0.2, 0.3}.
		Discretized(feature.DiscretizationStep)
	byHash := r.Lookup(v.ShardHash(), 2)
	byKey := r.Lookup(hashString(v.Key()), 2)
	if !reflect.DeepEqual(byHash, byKey) {
		t.Fatalf("ShardHash and the key's ring hash disagree: %v vs %v", byHash, byKey)
	}
}

func BenchmarkRingLookup(b *testing.B) {
	r := New(ringNodes(8), 0)
	rng := rand.New(rand.NewSource(3))
	hashes := make([]uint64, 1024)
	for i := range hashes {
		hashes[i] = rng.Uint64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Lookup(hashes[i%len(hashes)], 2)
	}
}
