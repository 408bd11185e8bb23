package serve

import (
	"strings"
	"testing"
	"time"

	"heteromap/internal/obs"
)

func TestWritePrometheusFormat(t *testing.T) {
	m := NewMetrics()
	m.Requests.Add(3)
	m.ObserveModel("tree", 50*time.Microsecond)
	m.RequestLatency.Observe(time.Millisecond)
	c := NewCache(8, 2)
	c.Put(ck("k"), cachedPrediction{})
	c.Get(ck("k"))
	c.Get(ck("absent"))

	var sb strings.Builder
	obs.WriteText(&sb, m.Families(c, func() int { return 5 }, []ModelInfo{
		{Name: "tree", Version: 2, Breaker: "open"},
	}))
	out := sb.String()

	for _, want := range []string{
		"heteromap_requests_total 3",
		"heteromap_cache_hits_total 1",
		"heteromap_cache_misses_total 1",
		"heteromap_cache_entries 1",
		"heteromap_queue_depth 5",
		`heteromap_model_requests_total{model="tree"} 1`,
		`heteromap_model_duration_seconds_bucket{model="tree",le="+Inf"} 1`,
		"heteromap_request_duration_seconds_count 1",
		"# TYPE heteromap_request_duration_seconds histogram",
		`heteromap_model_breaker_state{model="tree",version="2"} 1`,
		"heteromap_hedges_total 0",
		"heteromap_worker_restarts_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in metrics output", want)
		}
	}
	// Buckets must be cumulative: the +Inf bucket equals the count.
	if !strings.Contains(out, `heteromap_request_duration_seconds_bucket{le="+Inf"} 1`) {
		t.Error("missing cumulative +Inf bucket")
	}
}

// The obs parser inverts the writer: the p50 estimated from the parsed
// text agrees with the one estimated from the live histogram.
func TestScrapeRoundTrip(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 200; i++ {
		m.RequestLatency.Observe(30 * time.Microsecond)
	}
	for i := 0; i < 4; i++ {
		m.RequestLatency.Observe(40 * time.Millisecond)
	}
	var sb strings.Builder
	obs.WriteText(&sb, m.Families(NewCache(1, 1), func() int { return 0 }, nil))
	fams, err := obs.ParseText(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	var buckets []obs.Bucket
	for _, f := range fams {
		if f.Name == "heteromap_request_duration_seconds" {
			buckets = f.Buckets()
		}
	}
	p50 := obs.BucketQuantile(0.50, buckets)
	want := obs.BucketQuantile(0.50, m.RequestLatency.Buckets())
	if d := p50 - want; p50 == 0 || d < -1e-6 || d > 1e-6 {
		t.Fatalf("scraped p50 %gs != direct %gs", p50, want)
	}
}
