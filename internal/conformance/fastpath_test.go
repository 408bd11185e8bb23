package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/obs"
	"heteromap/internal/predict/dtree"
	"heteromap/internal/predict/nn"
	"heteromap/internal/serve"
	"heteromap/internal/train"
)

// The differential fastpath suite: the serve layer's optimized paths —
// the cache-hit fast path that answers before the miss path, the
// in-process PredictCached entry point, and batch-native NN inference —
// must be observationally identical to the slow reference paths they
// shortcut. Every test here compares an optimized answer byte-for-byte
// (via canonical JSON) against the unoptimized one and against the
// registry-direct core Select, so a fast path that drifts by even one
// ULP or one provenance field fails the build.

// postPredict issues one in-process /v1/predict and decodes the answer.
func postPredict(t testing.TB, h http.Handler, body []byte) serve.PredictResponse {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict returned %d: %s", rec.Code, rec.Body.String())
	}
	var resp serve.PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad predict response: %v", err)
	}
	return resp
}

// mustJSON canonicalizes a value for byte comparison.
func mustJSON(t testing.TB, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// explainRecords fetches the provenance records for one trace.
func explainRecords(t *testing.T, h http.Handler, traceID string) []obs.Provenance {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/explain/"+traceID, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("explain %s returned %d: %s", traceID, rec.Code, rec.Body.String())
	}
	var body struct {
		TraceID     string           `json:"trace_id"`
		Predictions []obs.Provenance `json:"predictions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad explain response: %v", err)
	}
	return body.Predictions
}

// TestFastPathMatchesMissPath drives every grid point through the
// slow path (cold cache -> miss path -> inference) and then the cache-hit
// fast path, and requires the two answers to be byte-identical in every
// semantic field: M, key, predictor, model identity — and identical to
// the registry-direct chain Select the serve layer wraps. Explain
// provenance for the warm request must match the cold one's in all
// decision fields (only trace id, cached flag and timestamp may differ).
func TestFastPathMatchesMissPath(t *testing.T) {
	pair := machine.PrimaryPair()
	s := serve.New(serve.Options{Pair: pair})
	defer s.Shutdown(context.Background())
	if _, err := s.Registry().Register("tree", "fastpath", dtree.New(pair.Limits())); err != nil {
		t.Fatal(err)
	}
	mod, err := s.Registry().Get("tree")
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	for _, p := range GridPoints(4242, 24) {
		f := p.Features.Discretized(feature.DiscretizationStep)
		body, err := json.Marshal(serve.PredictRequest{Model: "tree", Features: f[:]})
		if err != nil {
			t.Fatal(err)
		}
		cold := postPredict(t, h, body)
		warm := postPredict(t, h, body)

		if cold.Cached {
			t.Fatalf("%s: first request answered from cache", p.Name)
		}
		if !warm.Cached {
			t.Fatalf("%s: second request missed the cache", p.Name)
		}
		if got, want := mustJSON(t, warm.M), mustJSON(t, cold.M); got != want {
			t.Fatalf("%s: fast-path M drifted: %s != %s", p.Name, got, want)
		}
		if warm.Key != cold.Key || warm.PredictorUsed != cold.PredictorUsed ||
			warm.Model != cold.Model || warm.Version != cold.Version {
			t.Fatalf("%s: fast-path identity drifted: %+v != %+v", p.Name, warm, cold)
		}
		// Both must equal the core chain answer on the same snapshot.
		if got, want := mustJSON(t, cold.M), mustJSON(t, mod.Select(f).M); got != want {
			t.Fatalf("%s: served M %s != core Select %s", p.Name, got, want)
		}

		// The in-process fast path agrees with the HTTP one.
		m, used, version, ok := s.PredictCached("tree", f)
		if !ok {
			t.Fatalf("%s: PredictCached missed a warmed key", p.Name)
		}
		if got, want := mustJSON(t, m), mustJSON(t, warm.M); got != want || used != warm.PredictorUsed || version != warm.Version {
			t.Fatalf("%s: PredictCached = (%s, %s, %d), HTTP warm = (%s, %s, %d)",
				p.Name, got, used, version, want, warm.PredictorUsed, warm.Version)
		}

		// Explain provenance: the warm record differs from the cold one
		// only in trace id, the cached flag and the timestamp.
		coldProv := explainRecords(t, h, cold.TraceID)
		warmProv := explainRecords(t, h, warm.TraceID)
		if len(coldProv) != 1 || len(warmProv) != 1 {
			t.Fatalf("%s: provenance records cold=%d warm=%d, want 1 each",
				p.Name, len(coldProv), len(warmProv))
		}
		cp, wp := coldProv[0], warmProv[0]
		if !wp.Cached || cp.Cached {
			t.Fatalf("%s: provenance cached flags cold=%v warm=%v", p.Name, cp.Cached, wp.Cached)
		}
		cp.TraceID, wp.TraceID = "", ""
		cp.Cached, wp.Cached = false, false
		cp.When = wp.When
		if got, want := mustJSON(t, wp), mustJSON(t, cp); got != want {
			t.Fatalf("%s: fast-path provenance drifted:\n%s\n%s", p.Name, got, want)
		}
	}
}

// TestBatchNativeNNMatchesPerItem registers the same trained network on
// two servers and answers the same characterizations once as a
// /v1/predict/batch (the batch-native single-pass inference over the
// request's distinct misses) and once as sequential single-shot requests
// (per-item inference). The batch repeats one row and carries one row
// the cache already holds, so dedup and the hit path ride along. Every
// positional answer must be byte-identical across the two, and equal to
// the registry-direct Select — batching may change latency, never
// results.
func TestBatchNativeNNMatchesPerItem(t *testing.T) {
	pair := machine.PrimaryPair()
	db := train.BuildDatabase(pair, train.Config{Samples: 64, Seed: 7})
	net := nn.New(pair.Limits(), nn.Options{Hidden: 32, Epochs: 3, Seed: 7})
	if err := net.Train(db.Samples); err != nil {
		t.Fatal(err)
	}

	batchSrv := serve.New(serve.Options{Pair: pair})
	defer batchSrv.Shutdown(context.Background())
	itemSrv := serve.New(serve.Options{Pair: pair})
	defer itemSrv.Shutdown(context.Background())
	for _, s := range []*serve.Server{batchSrv, itemSrv} {
		if _, err := s.Registry().Register("nn", "fastpath", net); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := itemSrv.Registry().Get("nn")
	if err != nil {
		t.Fatal(err)
	}

	pts := GridPoints(90210, 12)
	var batch serve.BatchRequest
	var feats []feature.Vector
	for _, p := range pts {
		feats = append(feats, p.Features.Discretized(feature.DiscretizationStep))
	}
	// Row 12 repeats row 3; row 5 is warmed into the cache first.
	const dup, dupOf, warmed = 12, 3, 5
	feats = append(feats, feats[dupOf])
	for i := range feats {
		batch.Requests = append(batch.Requests,
			serve.PredictRequest{Model: "nn", Features: feats[i][:]})
	}
	warm, err := json.Marshal(batch.Requests[warmed])
	if err != nil {
		t.Fatal(err)
	}
	if postPredict(t, batchSrv.Handler(), warm).Cached {
		t.Fatal("warm-up request answered from an empty cache")
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/predict/batch", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	batchSrv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch predict returned %d: %s", rec.Code, rec.Body.String())
	}
	var got serve.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Responses) != len(feats) {
		t.Fatalf("batch answered %d of %d requests", len(got.Responses), len(feats))
	}
	for i, r := range got.Responses {
		if want := i == dup || i == warmed; r.Cached != want {
			t.Fatalf("row %d: cached = %v, want %v", i, r.Cached, want)
		}
	}

	ih := itemSrv.Handler()
	for i := range feats {
		if got.Responses[i].Error != "" {
			t.Fatalf("batch row %d errored: %s", i, got.Responses[i].Error)
		}
		single, err := json.Marshal(batch.Requests[i])
		if err != nil {
			t.Fatal(err)
		}
		item := postPredict(t, ih, single)
		bm, im := mustJSON(t, got.Responses[i].M), mustJSON(t, item.M)
		if bm != im {
			t.Fatalf("row %d: batch-native M %s != per-item M %s", i, bm, im)
		}
		if got.Responses[i].Key != item.Key || got.Responses[i].PredictorUsed != item.PredictorUsed {
			t.Fatalf("row %d: batch identity (%s, %s) != per-item (%s, %s)", i,
				got.Responses[i].Key, got.Responses[i].PredictorUsed, item.Key, item.PredictorUsed)
		}
		if want := mustJSON(t, ref.Select(feats[i]).M); bm != want {
			t.Fatalf("row %d: batch-native M %s != core Select %s", i, bm, want)
		}
	}
}

// TestFastPathStableUnderConcurrentReload hammers the predict path
// (alternating cold misses and fast-path hits) while another goroutine
// hot-swaps the model, and requires every single answer to carry the
// semantics of SOME registered snapshot — here all snapshots are the
// analytical tree, so every answer must equal the tree's. Run under
// -race in CI, this pins the fast path's lock discipline: a torn read
// of the model snapshot or the cache shard would either trip the
// detector or serve a mongrel answer.
func TestFastPathStableUnderConcurrentReload(t *testing.T) {
	pair := machine.PrimaryPair()
	s := serve.New(serve.Options{Pair: pair})
	defer s.Shutdown(context.Background())
	if _, err := s.Registry().Register("live", "v0", dtree.New(pair.Limits())); err != nil {
		t.Fatal(err)
	}
	ref, err := s.Registry().Get("live")
	if err != nil {
		t.Fatal(err)
	}

	pts := GridPoints(777, 8)
	bodies := make([][]byte, len(pts))
	wants := make([]string, len(pts))
	for i, p := range pts {
		f := p.Features.Discretized(feature.DiscretizationStep)
		var err error
		if bodies[i], err = json.Marshal(serve.PredictRequest{Model: "live", Features: f[:]}); err != nil {
			t.Fatal(err)
		}
		wants[i] = mustJSON(t, ref.Select(f).M)
	}

	h := s.Handler()
	const (
		readers = 4
		laps    = 30
		reloads = 40
	)
	// postOne is the goroutine-safe predict: all failures flow back as
	// errors (t.Fatal is owned by the test goroutine).
	postOne := func(body []byte) (serve.PredictResponse, error) {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var resp serve.PredictResponse
		if rec.Code != http.StatusOK {
			return resp, fmt.Errorf("predict returned %d: %s", rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return resp, fmt.Errorf("bad predict response: %w", err)
		}
		return resp, nil
	}
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			if _, err := s.Registry().Register("live", fmt.Sprintf("v%d", i+1), dtree.New(pair.Limits())); err != nil {
				errc <- err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for lap := 0; lap < laps; lap++ {
				for i := range bodies {
					resp, err := postOne(bodies[i])
					if err != nil {
						errc <- fmt.Errorf("reader %d: %w", r, err)
						return
					}
					buf, err := json.Marshal(resp.M)
					if err != nil {
						errc <- err
						return
					}
					if got := string(buf); got != wants[i] {
						errc <- fmt.Errorf("reader %d: point %d served %s, want %s (version %d, cached %v)",
							r, i, got, wants[i], resp.Version, resp.Cached)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
