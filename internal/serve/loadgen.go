package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"heteromap/internal/algo"
	"heteromap/internal/obs"
)

// LoadGenOptions configure a synthetic serving benchmark run.
type LoadGenOptions struct {
	// URL is the server base URL, e.g. "http://127.0.0.1:8080".
	URL string
	// Duration bounds the run (default 2s).
	Duration time.Duration
	// Concurrency is the number of client goroutines (default 8).
	Concurrency int
	// BatchSize > 1 sends batch requests of that size; otherwise each
	// request carries one prediction.
	BatchSize int
	// Model names the registry entry to exercise ("" = default).
	Model string
	// Combos is the size of the synthetic (benchmark, input) pool the
	// mix replays (default 64). Smaller pools mean hotter caches.
	Combos int
	// Seed fixes the request mix.
	Seed int64

	// Stages keeps the server-side per-stage latency attribution
	// (scraped from heteromap_stage_duration_seconds on /metrics) in the
	// report, so client p50/p99 can be read next to where the server
	// actually spent the time.
	Stages bool

	// Drift shifts the request mix mid-run: workers start on the calm
	// social-network-style pool and switch to a road-network-style pool
	// (sparse, high-diameter graphs — the paper's FB-vs-CA dataset
	// split). Offline-trained predictors realize much larger cost gaps
	// on the shifted pool, so a run with Drift set is the workload-shift
	// stimulus for the online learning loop's drift detector.
	Drift bool
	// DriftAfter is when the shift happens (default Duration/2).
	DriftAfter time.Duration

	// Chaos flips the server's serve-fault profile mid-run (via POST
	// /v1/chaos) so the report measures availability under rotating
	// failure modes. The server must be running with chaos enabled.
	Chaos bool
	// Cluster switches the chaos flipper to cluster fault profiles
	// (slow-peer, partition, node-kill) — the shapes a router front-end
	// injects at its forwarding layer. Use when URL points at a cluster
	// router rather than a single node.
	Cluster bool
	// ChaosRate scales the injected fault profiles (default 0.3).
	ChaosRate float64
	// ChaosFlip is the interval between profile changes (default
	// Duration/6, floored at 100ms).
	ChaosFlip time.Duration
}

func (o LoadGenOptions) withDefaults() LoadGenOptions {
	if o.Duration <= 0 {
		o.Duration = 2 * time.Second
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 1
	}
	if o.Combos <= 0 {
		o.Combos = 64
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.ChaosRate <= 0 {
		o.ChaosRate = 0.3
	}
	if o.Drift && o.DriftAfter <= 0 {
		o.DriftAfter = o.Duration / 2
	}
	if o.ChaosFlip <= 0 {
		o.ChaosFlip = o.Duration / 6
		if o.ChaosFlip < 100*time.Millisecond {
			o.ChaosFlip = 100 * time.Millisecond
		}
	}
	return o
}

// LoadGenResult summarizes a run: client-side throughput and latency
// quantiles plus the server's own view scraped from /metrics.
type LoadGenResult struct {
	Duration    time.Duration
	Requests    uint64 // HTTP round trips
	Predictions uint64 // individual predictions (batch items)
	Errors      uint64
	// ServerFailures counts 5xx responses and transport errors — the
	// requests that count against availability. 4xx responses are the
	// client's fault and count as available.
	ServerFailures uint64
	// Availability is the fraction of round trips that did not fail
	// server-side (1.0 when no requests ran).
	Availability float64

	Throughput float64 // predictions per second
	P50, P99   time.Duration

	// Backoffs counts 503 responses whose Retry-After hint the client
	// honored by sleeping (capped, jittered) instead of retrying
	// immediately — the anti-stampede half of load shedding.
	Backoffs uint64

	// Scraped from /metrics after the run.
	CacheHitRate     float64
	ServerP50        time.Duration
	ServerP99        time.Duration
	MeanBatchItems   float64
	FallbackEvents   uint64
	QueueFullRejects uint64

	// Self-healing counters scraped from /metrics: open-breaker
	// reroutes, deadline drops and injected chaos faults.
	BreakerRouted uint64
	DeadlineDrops uint64
	ChaosInjected uint64

	// Stages is the server-side latency attribution per predict-path
	// stage, in exposition order (queue, shed, batch, cache, inference,
	// total). Populated only when LoadGenOptions.Stages is set.
	Stages []StageStat
}

// StageStat summarizes one heteromap_stage_duration_seconds series.
type StageStat struct {
	Stage    string
	Count    uint64
	P50, P99 time.Duration
}

// String renders the serving-benchmark report.
func (r LoadGenResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "loadgen: %d requests (%d predictions, %d errors) in %v\n",
		r.Requests, r.Predictions, r.Errors, r.Duration.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  throughput     : %.0f predictions/s\n", r.Throughput)
	fmt.Fprintf(&sb, "  client latency : p50 %v, p99 %v\n", r.P50, r.P99)
	fmt.Fprintf(&sb, "  server latency : p50 %v, p99 %v (from /metrics)\n", r.ServerP50, r.ServerP99)
	fmt.Fprintf(&sb, "  cache hit rate : %.1f%%\n", r.CacheHitRate*100)
	fmt.Fprintf(&sb, "  mean batch     : %.2f items\n", r.MeanBatchItems)
	fmt.Fprintf(&sb, "  availability   : %.2f%% (%d server failures)\n",
		r.Availability*100, r.ServerFailures)
	if len(r.Stages) > 0 {
		sb.WriteString("  server stages  :\n")
		for _, st := range r.Stages {
			fmt.Fprintf(&sb, "    %-10s p50 %v, p99 %v (n=%d)\n",
				st.Stage, st.P50, st.P99, st.Count)
		}
	}
	fmt.Fprintf(&sb, "  fallbacks      : %d, queue-full rejects: %d, honored backoffs: %d",
		r.FallbackEvents, r.QueueFullRejects, r.Backoffs)
	if r.BreakerRouted+r.DeadlineDrops+r.ChaosInjected > 0 {
		fmt.Fprintf(&sb, "\n  self-healing   : %d breaker reroutes, %d deadline drops, %d injected faults",
			r.BreakerRouted, r.DeadlineDrops, r.ChaosInjected)
	}
	return sb.String()
}

// synthCombo is one replayable (benchmark, input) request of the mix.
type synthCombo struct{ req PredictRequest }

// buildMix synthesizes a pool of (benchmark, input) combinations with
// paper-plausible graph magnitudes. Workers replay it with a skewed
// (80/20-style) distribution so the cache sees realistic repetition.
func buildMix(o LoadGenOptions) []synthCombo {
	rng := rand.New(rand.NewSource(o.Seed))
	benches := algo.All()
	combos := make([]synthCombo, o.Combos)
	for i := range combos {
		b := benches[rng.Intn(len(benches))]
		v := int64(1e6 * (1 + rng.Float64()*100)) // 1M..100M vertices
		deg := int64(10 + rng.Intn(3000))
		combos[i] = synthCombo{req: PredictRequest{
			Model:     o.Model,
			Bench:     b.Name,
			Vertices:  v,
			Edges:     v * (2 + int64(rng.Intn(30))),
			MaxDegree: deg * (1 + int64(rng.Intn(100))),
			Diameter:  int64(10 + rng.Intn(2000)),
		}}
	}
	return combos
}

// buildDriftMix synthesizes the shifted pool: road-network-shaped
// graphs — few edges per vertex, modest maximum degree, very high
// diameter — whose best configurations sit far from what the calm
// pool's traffic rewards.
func buildDriftMix(o LoadGenOptions) []synthCombo {
	rng := rand.New(rand.NewSource(o.Seed + 104729))
	benches := algo.All()
	combos := make([]synthCombo, o.Combos)
	for i := range combos {
		b := benches[rng.Intn(len(benches))]
		v := int64(1e6 * (1 + rng.Float64()*29)) // 1M..30M vertices
		combos[i] = synthCombo{req: PredictRequest{
			Model:     o.Model,
			Bench:     b.Name,
			Vertices:  v,
			Edges:     v * (2 + int64(rng.Intn(3))),  // 2-4 edges/vertex
			MaxDegree: 3 + int64(rng.Intn(8)),        // 3-10
			Diameter:  int64(3000 + rng.Intn(27000)), // 3k-30k
		}}
	}
	return combos
}

// pick returns a mix index with a hot-set skew: 80% of picks land in the
// first 20% of the pool.
func pick(rng *rand.Rand, n int) int {
	hot := n / 5
	if hot < 1 {
		hot = 1
	}
	if rng.Float64() < 0.8 {
		return rng.Intn(hot)
	}
	return rng.Intn(n)
}

// RunLoadGen replays a synthetic request mix against a running server
// and reports throughput and latency, merging the server's /metrics view.
func RunLoadGen(o LoadGenOptions) (LoadGenResult, error) {
	o = o.withDefaults()
	if o.URL == "" {
		return LoadGenResult{}, fmt.Errorf("serve: loadgen needs a server URL")
	}
	mix := buildMix(o)
	var driftMix []synthCombo
	if o.Drift {
		driftMix = buildDriftMix(o)
	}
	client := &http.Client{Timeout: 10 * time.Second}

	var requests, predictions, errors, serverFailures, backoffs atomic.Uint64
	latencies := make([][]time.Duration, o.Concurrency)
	deadline := time.Now().Add(o.Duration)
	driftAt := time.Now().Add(o.DriftAfter)

	if o.Chaos {
		// Wait for the flipper's reset on the way out, so the server is
		// calm by the time RunLoadGen returns.
		stopChaos, flipperDone := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(flipperDone)
			runChaosFlipper(client, o, stopChaos)
		}()
		defer func() {
			close(stopChaos)
			<-flipperDone
		}()
	}

	var wg sync.WaitGroup
	for g := 0; g < o.Concurrency; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.Seed + int64(g)*7919))
			for time.Now().Before(deadline) {
				pool := mix
				if o.Drift && time.Now().After(driftAt) {
					pool = driftMix
				}
				var body any
				var url string
				n := 1
				if o.BatchSize > 1 {
					reqs := make([]PredictRequest, o.BatchSize)
					for i := range reqs {
						reqs[i] = pool[pick(rng, len(pool))].req
					}
					body = BatchRequest{Requests: reqs}
					url = o.URL + "/v1/predict/batch"
					n = o.BatchSize
				} else {
					body = pool[pick(rng, len(pool))].req
					url = o.URL + "/v1/predict"
				}
				buf, _ := json.Marshal(body)
				start := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
				elapsed := time.Since(start)
				requests.Add(1)
				if err != nil || resp.StatusCode != http.StatusOK {
					errors.Add(1)
					if err != nil || resp.StatusCode >= 500 {
						serverFailures.Add(1)
					}
					var retryHint time.Duration
					if resp != nil {
						if resp.StatusCode == http.StatusServiceUnavailable {
							retryHint = retryAfterFrom(resp)
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					if retryHint > 0 {
						// A saturated node asked us to back off; honoring the
						// hint (capped, jittered) is what keeps a shed from
						// turning into a retry stampede.
						backoffs.Add(1)
						sleepJittered(rng, retryHint, deadline)
					}
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				predictions.Add(uint64(n))
				latencies[g] = append(latencies[g], elapsed)
			}
		}(g)
	}
	wg.Wait()

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := LoadGenResult{
		Duration:       o.Duration,
		Requests:       requests.Load(),
		Predictions:    predictions.Load(),
		Errors:         errors.Load(),
		ServerFailures: serverFailures.Load(),
		Backoffs:       backoffs.Load(),
		Throughput:     float64(predictions.Load()) / o.Duration.Seconds(),
		Availability:   1,
	}
	if res.Requests > 0 {
		res.Availability = float64(res.Requests-res.ServerFailures) / float64(res.Requests)
	}
	if len(all) > 0 {
		res.P50 = all[len(all)/2]
		res.P99 = all[min(len(all)-1, len(all)*99/100)]
	}
	if err := res.scrapeMetrics(client, o.URL); err != nil {
		return res, fmt.Errorf("serve: loadgen metrics scrape: %w", err)
	}
	if !o.Stages {
		res.Stages = nil
	}
	return res, nil
}

// maxRetryBackoff caps how long a client honors a Retry-After hint: a
// misconfigured or hostile server must not be able to park the client.
const maxRetryBackoff = 250 * time.Millisecond

// retryAfterFrom reads the backoff hint from a 503, preferring the
// millisecond-precision header and falling back to standard Retry-After
// seconds. Zero when the response carries neither.
func retryAfterFrom(resp *http.Response) time.Duration {
	if ms := resp.Header.Get(RetryAfterMSHeader); ms != "" {
		if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v > 0 {
			return time.Duration(v) * time.Millisecond
		}
	}
	if sec := resp.Header.Get("Retry-After"); sec != "" {
		if v, err := strconv.ParseInt(sec, 10, 64); err == nil && v > 0 {
			return time.Duration(v) * time.Second
		}
	}
	return 0
}

// sleepJittered sleeps for the hint capped at maxRetryBackoff, jittered
// uniformly over [d/2, d) so backed-off clients do not re-arrive in one
// synchronized wave, and never past the run deadline.
func sleepJittered(rng *rand.Rand, d time.Duration, deadline time.Time) {
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	d = d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
	if remain := time.Until(deadline); d > remain {
		d = remain
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// chaosProfiles are the fault shapes the flipper rotates through: each
// cycle exercises a different serve failure mode, ending on a calm
// window so the server must also be seen recovering.
func chaosProfiles(rate float64) []chaosRequest {
	return []chaosRequest{
		{SlowModelRate: rate, SlowModelMS: 50},                       // slow model → breaker failures
		{SlowModelRate: rate / 2, SlowModelMS: 100},                  // rarer, longer model stalls
		{QueueRejectRate: rate / 10, CorruptReloadRate: 1},           // saturation + bad reloads
		{SlowModelRate: rate, SlowModelMS: 50, CorruptReloadRate: 1}, // combined
		{}, // calm: recovery window
	}
}

// clusterChaosProfiles are the router-layer fault shapes the flipper
// rotates through in cluster mode: slow peers (hedging), partitions
// (per-try timeouts + failover), node deaths (fast failover), a combined
// storm, then calm. Field names match the router's /v1/chaos body.
func clusterChaosProfiles(rate float64) []map[string]float64 {
	return []map[string]float64{
		{"slow_peer_rate": rate, "slow_peer_ms": 50},
		{"partition_rate": rate / 4},
		// Kill rates stay below rate/3: a synthetic kill on BOTH rungs of
		// the failover ladder fails the request outright, and that
		// compound probability is what eats the availability budget.
		{"node_kill_rate": rate / 3},
		{"slow_peer_rate": rate, "slow_peer_ms": 50, "node_kill_rate": rate / 4},
		{}, // calm: recovery window
	}
}

// runChaosFlipper rotates the server's fault profile every ChaosFlip
// until stop closes, then resets it to calm so the server is left clean.
// In cluster mode the profiles are the router-layer fault shapes.
func runChaosFlipper(client *http.Client, o LoadGenOptions, stop <-chan struct{}) {
	post := func(p any) {
		buf, _ := json.Marshal(p)
		resp, err := client.Post(o.URL+"/v1/chaos", "application/json", bytes.NewReader(buf))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	var profiles []any
	if o.Cluster {
		for _, p := range clusterChaosProfiles(o.ChaosRate) {
			profiles = append(profiles, p)
		}
	} else {
		for _, p := range chaosProfiles(o.ChaosRate) {
			profiles = append(profiles, p)
		}
	}
	ticker := time.NewTicker(o.ChaosFlip)
	defer ticker.Stop()
	for i := 0; ; i++ {
		post(profiles[i%len(profiles)])
		select {
		case <-stop:
			if o.Cluster {
				post(map[string]float64{})
			} else {
				post(chaosRequest{})
			}
			return
		case <-ticker.C:
		}
	}
}

// scrapeMetrics pulls /metrics and fills the server-side fields.
func (r *LoadGenResult) scrapeMetrics(client *http.Client, base string) error {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	// An odd line costs only its own series, never the whole report.
	fams, _ := obs.ParseText(string(page))

	var hits, misses, batches, batchItems float64
	for _, f := range fams {
		if len(f.Samples) == 0 {
			continue
		}
		v := f.Samples[0].Value
		switch f.Name {
		case "heteromap_cache_hits_total":
			hits = v
		case "heteromap_cache_misses_total":
			misses = v
		case "heteromap_batches_total":
			batches = v
		case "heteromap_batch_items_total":
			batchItems = v
		case "heteromap_fallback_events_total":
			r.FallbackEvents = uint64(v)
		case "heteromap_queue_full_total":
			r.QueueFullRejects = uint64(v)
		case "heteromap_breaker_routed_total":
			r.BreakerRouted = uint64(v)
		case "heteromap_deadline_drops_total":
			r.DeadlineDrops = uint64(v)
		case "heteromap_chaos_slow_model_total", "heteromap_chaos_queue_rejects_total":
			r.ChaosInjected += uint64(v)
		case "heteromap_request_duration_seconds":
			b := f.Buckets()
			r.ServerP50, r.ServerP99 = seconds(obs.BucketQuantile(0.50, b)), seconds(obs.BucketQuantile(0.99, b))
		case "heteromap_stage_duration_seconds":
			for _, s := range f.Samples {
				if s.Name == f.Name+"_count" {
					b := f.Buckets(s.Labels...)
					r.Stages = append(r.Stages, StageStat{Stage: s.Label("stage"), Count: uint64(s.Value),
						P50: seconds(obs.BucketQuantile(0.50, b)), P99: seconds(obs.BucketQuantile(0.99, b))})
				}
			}
		}
	}
	if hits+misses > 0 {
		r.CacheHitRate = hits / (hits + misses)
	}
	if batches > 0 {
		r.MeanBatchItems = batchItems / batches
	}
	return nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
