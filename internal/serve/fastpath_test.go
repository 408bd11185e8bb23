package serve

import (
	"testing"

	"heteromap/internal/feature"
)

// The in-process cache-hit fast path is allocation-free: registry
// resolve, binary key build, sharded-LRU hit and metric accounting all
// stay off the heap. This is the same property the hmbench
// serve/predict-cachehit baseline pins at 0 allocs/op — the test keeps
// it enforced in plain `go test` runs too.
func TestPredictCachedZeroAlloc(t *testing.T) {
	s, ts := newTestServer(t, Options{DisableTracing: true})

	var f feature.Vector
	f[0], f[3], f[13] = 0.3, 0.7, 0.5
	// PredictCached takes the already-resolved characterization: the same
	// discretized vector the HTTP path derives server-side.
	f = f.Discretized(feature.DiscretizationStep)
	resp, _ := postJSON(t, ts.URL+"/v1/predict",
		PredictRequest{Model: "tree", Features: f[:]})
	if resp.StatusCode != 200 {
		t.Fatalf("warmup predict returned %d", resp.StatusCode)
	}
	if _, _, _, ok := s.PredictCached("tree", f); !ok {
		t.Fatal("warmed key missed the cache")
	}

	n := testing.AllocsPerRun(1000, func() {
		if _, _, _, ok := s.PredictCached("tree", f); !ok {
			t.Fatal("warmed key missed the cache mid-run")
		}
	})
	if n != 0 {
		t.Fatalf("PredictCached allocated %.1f times per call, want 0", n)
	}

	// A cold call reads through the same lookup as every other: it
	// counts one cache miss, and no request, since nothing was answered.
	var cold feature.Vector
	cold[5] = 0.9
	_, missesBefore, _ := s.cache.Stats()
	requestsBefore := s.Metrics().Requests.Load()
	if _, _, _, ok := s.PredictCached("tree", cold); ok {
		t.Fatal("cold key hit the cache")
	}
	if _, misses, _ := s.cache.Stats(); misses != missesBefore+1 {
		t.Fatalf("cold call counted %d cache misses, want 1", misses-missesBefore)
	}
	if got := s.Metrics().Requests.Load(); got != requestsBefore {
		t.Fatalf("cold call counted %d requests, want 0", got-requestsBefore)
	}

	// The miss path is allocation-free too — a cold probe must not pay
	// for the answer it does not produce.
	n = testing.AllocsPerRun(1000, func() {
		if _, _, _, ok := s.PredictCached("tree", cold); ok {
			t.Fatal("cold key hit the cache")
		}
	})
	if n != 0 {
		t.Fatalf("PredictCached miss allocated %.1f times per call, want 0", n)
	}
}
