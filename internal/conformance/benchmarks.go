package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"heteromap/internal/config"
	"heteromap/internal/durable"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/obs"
	"heteromap/internal/online"
	"heteromap/internal/predict/dtree"
	"heteromap/internal/predict/nn"
	"heteromap/internal/serve"
	"heteromap/internal/train"
)

// BenchTarget is one hot-path measurement cmd/hmbench runs (and the
// root Conformance* benchmarks wrap for `go test -bench`). Run bodies
// follow testing.B conventions: setup before ResetTimer, b.N iterations.
type BenchTarget struct {
	// Name is the stable BENCH_*.json key ("feature/discretize").
	// Renaming a target orphans its baseline row, so treat names as API.
	Name string
	// Doc is the one-line description hmbench -list prints.
	Doc string
	// Run measures the target.
	Run func(b *testing.B)
}

// BenchTargets returns every hot-path target. short selects reduced
// workload sizes (the CI smoke configuration); short and full runs are
// not comparable to each other and the report's environment stanza
// records which one produced it.
func BenchTargets(short bool) []BenchTarget {
	return []BenchTarget{
		{
			Name: "feature/discretize",
			Doc:  "17-dim vector clamp+snap onto the 0.1 grid (cache-key normalization)",
			Run:  benchFeatureDiscretize,
		},
		{
			Name: "feature/key-roundtrip",
			Doc:  "cache-key render + parse round trip of a discretized vector",
			Run:  benchFeatureKeyRoundTrip,
		},
		{
			Name: "machine/evaluate",
			Doc:  "one machine-model cost evaluation (GPU side, synthesized job)",
			Run:  benchMachineEvaluate,
		},
		{
			Name: "predict/tree",
			Doc:  "analytical decision-tree inference (M1 tree + M2-M20 equations)",
			Run:  benchPredictTree,
		},
		{
			Name: "predict/deep128",
			Doc:  "Deep.128 forward pass (17 -> 128 -> 20)",
			Run:  benchPredictDeep128(short),
		},
		{
			Name: "serve/predict-cachehit",
			Doc:  "in-process cache-hit fast path (binary key build + sharded LRU hit); gated at 0 allocs/op",
			Run:  benchServeCacheHit,
		},
		{
			Name: "serve/federation-scrape",
			Doc:  "one /metrics/cluster federation pass: parse + merge 3 node expositions (counters summed, histograms bucket-merged, node labels)",
			Run:  benchFederationScrape,
		},
		{
			Name: "train/build-db",
			Doc:  "offline database build throughput (exhaustive sweep per sample)",
			Run:  benchTrainBuildDB(short),
		},
		{
			Name: "train/load-db",
			Doc:  "checksummed database load (ns/op) vs the unchecksummed legacy format (legacy_ns/op, verify_overhead_pct)",
			Run:  benchTrainLoadDB(short),
		},
		{
			Name: "durable/wal-append",
			Doc:  "one framed+checksummed feedback-WAL append (outcome-sized payload), fsync amortized per 16-record batch",
			Run:  benchDurableWALAppend,
		},
		{
			Name: "online/feedback-ingest",
			Doc:  "predict e2e with the learning-loop hook (ns/op) vs without (plain_ns/op, overhead_pct)",
			Run:  benchOnlineFeedbackIngest,
		},
		{
			Name: "online/drift-check",
			Doc:  "one drift-detector observation (EWMA + cell stats + signal window) plus the arming check",
			Run:  benchOnlineDriftCheck,
		},
	}
}

// TargetNames lists the stable target names the committed baseline must
// cover.
func TargetNames() []string {
	ts := BenchTargets(true)
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name
	}
	return names
}

// benchPoints returns a deterministic set of characterization points
// shared by the single-process benchmarks.
func benchPoints(n int) []Point {
	return GridPoints(1729, n)
}

func benchFeatureDiscretize(b *testing.B) {
	pts := benchPoints(64)
	// Undiscretized inputs: jitter off the grid so the snap does work.
	rng := rand.New(rand.NewSource(9))
	raw := make([]feature.Vector, len(pts))
	for i, p := range pts {
		raw[i] = p.Features
		for j := range raw[i] {
			raw[i][j] += rng.Float64() * 0.049
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := raw[i%len(raw)].Discretized(feature.DiscretizationStep)
		if v[0] < 0 {
			b.Fatal("impossible")
		}
	}
}

func benchFeatureKeyRoundTrip(b *testing.B) {
	pts := benchPoints(64)
	keys := make([]string, len(pts))
	for i, p := range pts {
		keys[i] = p.Features.Discretized(feature.DiscretizationStep).Key()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := feature.ParseKey(keys[i%len(keys)])
		if err != nil {
			b.Fatal(err)
		}
		if v.Key() == "" {
			b.Fatal("empty key")
		}
	}
}

func benchMachineEvaluate(b *testing.B) {
	pair := machine.PrimaryPair()
	pts := benchPoints(16)
	m := config.DefaultGPU(pair.Limits())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := pair.GPU.Evaluate(pts[i%len(pts)].Job, m)
		if rep.Seconds <= 0 {
			b.Fatal("non-positive cost")
		}
	}
}

func benchPredictTree(b *testing.B) {
	pair := machine.PrimaryPair()
	tree := dtree.New(pair.Limits())
	pts := benchPoints(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Predict(pts[i%len(pts)].Features)
	}
}

func benchPredictDeep128(short bool) func(b *testing.B) {
	return func(b *testing.B) {
		pair := machine.PrimaryPair()
		samples := 256
		if short {
			samples = 64
		}
		db := train.BuildDatabase(pair, train.Config{Samples: samples, Seed: 7})
		net := nn.New(pair.Limits(), nn.Options{Hidden: 128, Epochs: 5, Seed: 7})
		if err := net.Train(db.Samples); err != nil {
			b.Fatal(err)
		}
		pts := benchPoints(64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Predict(pts[i%len(pts)].Features)
		}
	}
}

// benchServeSetup starts a serve.Server (with the given extra options)
// behind an httptest listener, registers the tree model, and prepares a
// rotation of distinct predict bodies. The caller must call stop.
func benchServeSetup(b *testing.B, opts serve.Options) (ts *httptest.Server, bodies [][]byte, stop func()) {
	pair := machine.PrimaryPair()
	opts.Pair = pair
	s := serve.New(opts)
	if _, err := s.Registry().Register("tree", "bench", dtree.New(pair.Limits())); err != nil {
		b.Fatal(err)
	}
	ts = httptest.NewServer(s.Handler())
	stop = func() {
		ts.Close()
		s.Shutdown(context.Background())
	}
	pts := benchPoints(64)
	bodies = make([][]byte, len(pts))
	for i, p := range pts {
		f := p.Features.Discretized(feature.DiscretizationStep)
		buf, err := json.Marshal(serve.PredictRequest{Model: "tree", Features: f[:]})
		if err != nil {
			stop()
			b.Fatal(err)
		}
		bodies[i] = buf
	}
	return ts, bodies, stop
}

func servePredictOnce(b *testing.B, client *http.Client, url string, body []byte) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("predict returned %d", resp.StatusCode)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
}

// benchServeCacheHit prices the cache-hit fast path with the HTTP and
// JSON layers peeled off: one PredictCached call — registry resolve,
// binary cache-key build, sharded-LRU hit, latency accounting — per
// iteration. This is the floor an HTTP cache hit decomposes onto, and
// the target the allocs/op gate pins at zero: any per-hit allocation that
// sneaks onto this path (a string key, an escaping closure, a trace
// exemplar) fails the baseline comparison.
func benchServeCacheHit(b *testing.B) {
	pair := machine.PrimaryPair()
	s := serve.New(serve.Options{Pair: pair, DisableTracing: true})
	defer s.Shutdown(context.Background())
	if _, err := s.Registry().Register("tree", "bench", dtree.New(pair.Limits())); err != nil {
		b.Fatal(err)
	}
	pts := benchPoints(64)
	feats := make([]feature.Vector, len(pts))
	h := s.Handler()
	for i, p := range pts {
		feats[i] = p.Features.Discretized(feature.DiscretizationStep)
		// Warm each key through the full predict path once.
		body, err := json.Marshal(serve.PredictRequest{Model: "tree", Features: feats[i][:]})
		if err != nil {
			b.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("warmup predict returned %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := s.PredictCached("tree", feats[i%len(feats)]); !ok {
			b.Fatal("warmed key missed the cache")
		}
	}
}

// benchFederationScrape prices the router-side cost of one
// /metrics/cluster federation pass with the network peeled off: three
// realistic node expositions (captured from a warmed serve instance)
// parsed and merged — counters summed, histogram buckets merged, every
// series re-labeled with its node — per iteration. The scrape fan-out
// itself is bounded by the slowest peer, not this merge, so the merge
// is the part a baseline can hold still.
func benchFederationScrape(b *testing.B) {
	ts, bodies, stop := benchServeSetup(b, serve.Options{})
	defer stop()
	client := ts.Client()
	// Populate counters, latency histograms and cache stats so the
	// captured page has the production families, then scrape it once.
	for i := range bodies {
		servePredictOnce(b, client, ts.URL+"/v1/predict", bodies[i])
	}
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		b.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	text := string(page)
	nodes := []obs.NodeMetrics{
		{Node: "127.0.0.1:9001", Text: text},
		{Node: "127.0.0.1:9002", Text: text},
		{Node: "127.0.0.1:9003", Text: text},
	}
	b.SetBytes(int64(3 * len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs.FederateMetrics(io.Discard, nodes)
	}
}

func benchTrainBuildDB(short bool) func(b *testing.B) {
	return func(b *testing.B) {
		pair := machine.PrimaryPair()
		samples := 128
		if short {
			samples = 48
		}
		b.ResetTimer()
		var built int
		for i := 0; i < b.N; i++ {
			db := train.BuildDatabase(pair, train.Config{Samples: samples, Seed: int64(i + 1)})
			built += len(db.Samples)
		}
		b.StopTimer()
		if b.Elapsed() > 0 {
			b.ReportMetric(float64(built)/b.Elapsed().Seconds(), "samples/sec")
		}
		if built != b.N*samples {
			b.Fatalf("built %d samples, want %d", built, b.N*samples)
		}
	}
}

// benchTrainLoadDB prices the durability tax on model loads: ns/op is a
// full checksummed (HMD2) database load — every record CRC-verified and
// the sealed footer checked — while a stopped-timer reference load of
// the same samples in the legacy unchecksummed format yields
// legacy_ns/op and verify_overhead_pct. The acceptance budget is 5%.
func benchTrainLoadDB(short bool) func(b *testing.B) {
	return func(b *testing.B) {
		pair := machine.PrimaryPair()
		samples := 512
		if short {
			samples = 128
		}
		db := train.BuildDatabase(pair, train.Config{Samples: samples, Seed: 7})
		var v2, legacy bytes.Buffer
		if err := db.Save(&v2); err != nil {
			b.Fatal(err)
		}
		if err := db.SaveLegacy(&legacy); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := train.LoadDB(bytes.NewReader(v2.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if len(got.Samples) != samples {
				b.Fatalf("loaded %d samples, want %d", len(got.Samples), samples)
			}
		}
		b.StopTimer()
		v2NS := float64(b.Elapsed().Nanoseconds()) / float64(b.N)

		refN := b.N
		if refN > 512 {
			refN = 512
		}
		if refN < 16 {
			refN = 16
		}
		start := time.Now()
		for i := 0; i < refN; i++ {
			if _, err := train.LoadDB(bytes.NewReader(legacy.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
		legacyNS := float64(time.Since(start).Nanoseconds()) / float64(refN)
		b.ReportMetric(legacyNS, "legacy_ns/op")
		if legacyNS > 0 {
			b.ReportMetric((v2NS-legacyNS)/legacyNS*100, "verify_overhead_pct")
		}
	}
}

// benchDurableWALAppend prices one feedback-journal append as the
// collector tick pays it: frame + CRC an outcome-sized payload into the
// active segment, with the batch-boundary fsync amortized over
// 16-record batches (the tick seals once per batch, not per record).
func benchDurableWALAppend(b *testing.B) {
	w, err := durable.OpenWAL(durable.WALOptions{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	payload := make([]byte, 600) // ~ encoded Outcome size
	rng := rand.New(rand.NewSource(17))
	rng.Read(payload)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(payload); err != nil {
			b.Fatal(err)
		}
		if i%16 == 15 {
			if err := w.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchOnlineFeedbackIngest prices the serve-path cost of closing the
// learning loop: ns/op is the steady-state predict e2e with the online
// manager's feedback hook enqueueing every decision, plain_ns/op a
// matched reference run without the hook, and overhead_pct their
// relative cost. The acceptance budget is 2%: the hook is a sharded
// overwrite-oldest ring enqueue, and every expensive step (machine-model
// realization, drift accounting, retraining) happens in the background
// collector — which stays stopped here so the measurement isolates what
// the request path pays.
func benchOnlineFeedbackIngest(b *testing.B) {
	mgr := online.New(online.Options{Pair: machine.PrimaryPair(), Model: "tree"})
	hooked, hookedBodies, stopHooked := benchServeSetup(b, serve.Options{Online: mgr})
	defer stopHooked()
	plain, plainBodies, stopPlain := benchServeSetup(b, serve.Options{})
	defer stopPlain()
	hc, pc := hooked.Client(), plain.Client()

	// Warm both caches so both measurements cover the cache-hit path.
	for i := range hookedBodies {
		servePredictOnce(b, hc, hooked.URL+"/v1/predict", hookedBodies[i])
		servePredictOnce(b, pc, plain.URL+"/v1/predict", plainBodies[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		servePredictOnce(b, hc, hooked.URL+"/v1/predict", hookedBodies[i%len(hookedBodies)])
	}
	b.StopTimer()
	hookedNS := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	if got := mgr.Snapshot().Ingested; got < uint64(b.N) {
		b.Fatalf("hook enqueued %d samples, want at least %d", got, b.N)
	}

	refN := b.N
	if refN > 4096 {
		refN = 4096
	}
	if refN < 256 {
		refN = 256
	}
	start := time.Now()
	for i := 0; i < refN; i++ {
		servePredictOnce(b, pc, plain.URL+"/v1/predict", plainBodies[i%len(plainBodies)])
	}
	plainNS := float64(time.Since(start).Nanoseconds()) / float64(refN)
	b.ReportMetric(plainNS, "plain_ns/op")
	if plainNS > 0 {
		b.ReportMetric((hookedNS-plainNS)/plainNS*100, "overhead_pct")
	}
}

// benchOnlineDriftCheck prices the collector-side drift accounting per
// outcome: one Detector.Observe (family EWMA, per-cell stats, the
// consecutive-over-threshold window) plus the Drifting check the
// retrain scheduler makes. Gaps stay below threshold so the signal
// never arms and every iteration walks the same path.
func benchOnlineDriftCheck(b *testing.B) {
	det := online.NewDetector(0.1, 0.25, 16)
	pts := benchPoints(64)
	keys := make([]string, len(pts))
	for i, p := range pts {
		keys[i] = p.Features.Discretized(feature.DiscretizationStep).Key()
	}
	rng := rand.New(rand.NewSource(31))
	gaps := make([]float64, 256)
	for i := range gaps {
		gaps[i] = rng.Float64() * 0.2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Observe("tree", keys[i%len(keys)], gaps[i%len(gaps)])
		if det.Drifting("tree") {
			b.Fatal("sub-threshold gaps armed the drift signal")
		}
	}
}

// RunTarget measures one named target with testing.Benchmark and folds
// the result into a BenchResult row.
func RunTarget(t BenchTarget) (BenchResult, error) {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs() // alloc counts feed the allocs/op regression gate
		t.Run(b)
	})
	if res.N == 0 {
		return BenchResult{}, fmt.Errorf("conformance: target %s did not run (failed inside testing.Benchmark)", t.Name)
	}
	out := BenchResult{
		Name:        t.Name,
		Iterations:  res.N,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
	if len(res.Extra) > 0 {
		out.Metrics = make(map[string]float64, len(res.Extra))
		for k, v := range res.Extra {
			out.Metrics[k] = v
		}
	}
	return out, nil
}
