package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heteromap/internal/algo"
	"heteromap/internal/config"
	"heteromap/internal/core"
	"heteromap/internal/gen"
	"heteromap/internal/machine"
	"heteromap/internal/predict/dtree"
)

// newTestServer builds a server with the analytical decision tree
// registered as "tree" and returns it behind httptest.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Pair.GPU == nil {
		opts.Pair = machine.PrimaryPair()
	}
	s := New(opts)
	if _, err := s.Registry().Register("tree", "builtin decision tree",
		dtree.New(opts.Pair.Limits())); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// Served predictions — single-shot and batch — must be byte-identical to
// what the offline runtime (core.System.Run) deploys for the same
// (benchmark, input) pair: same characterization path, same chain, same
// M, same JSON bytes. This is the acceptance property of the subsystem.
func TestServedPredictionsMatchCoreRun(t *testing.T) {
	pair := machine.PrimaryPair()
	_, ts := newTestServer(t, Options{Pair: pair})

	sys := core.NewSystem(pair, dtree.New(pair.Limits()), core.Performance)
	datasets := gen.TableICached(gen.Small)[:3]
	benches := algo.All()

	var reqs []PredictRequest
	var wantJSON [][]byte
	for _, b := range benches {
		for _, ds := range datasets {
			w, err := core.Characterize(b, ds)
			if err != nil {
				t.Fatal(err)
			}
			rep := sys.Run(w)
			mj, err := json.Marshal(rep.Chosen)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON = append(wantJSON, mj)
			reqs = append(reqs, PredictRequest{
				Model:     "tree",
				Bench:     b.Name,
				Vertices:  ds.Declared.V,
				Edges:     ds.Declared.E,
				MaxDegree: ds.Declared.MaxDeg,
				Diameter:  ds.Declared.Diameter,
			})
		}
	}

	// Single-shot endpoint.
	for i, req := range reqs {
		resp, body := postJSON(t, ts.URL+"/v1/predict", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", req.Bench, resp.StatusCode, body)
		}
		var pr PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(pr.M)
		if !bytes.Equal(gotJSON, wantJSON[i]) {
			t.Fatalf("%s: served M differs from core run:\n got %s\nwant %s",
				req.Bench, gotJSON, wantJSON[i])
		}
		if pr.PredictorUsed != "Decision Tree" {
			t.Fatalf("predictor used = %q", pr.PredictorUsed)
		}
	}

	// Batch endpoint must agree positionally, byte for byte.
	resp, body := postJSON(t, ts.URL+"/v1/predict/batch", BatchRequest{Requests: reqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Responses) != len(reqs) {
		t.Fatalf("batch returned %d responses for %d requests", len(br.Responses), len(reqs))
	}
	for i, pr := range br.Responses {
		if pr.Error != "" {
			t.Fatalf("batch item %d errored: %s", i, pr.Error)
		}
		gotJSON, _ := json.Marshal(pr.M)
		if !bytes.Equal(gotJSON, wantJSON[i]) {
			t.Fatalf("batch item %d differs:\n got %s\nwant %s", i, gotJSON, wantJSON[i])
		}
		// The single-shot pass populated the cache with these keys.
		if !pr.Cached {
			t.Fatalf("batch item %d missed the cache", i)
		}
	}
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" || health.Models != 1 {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, health)
	}

	// Serve one prediction, then scrape.
	postJSON(t, ts.URL+"/v1/predict", PredictRequest{
		Bench: "BFS", Vertices: 4e6, Edges: 1e8, MaxDegree: 9000, Diameter: 30,
	})
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"heteromap_requests_total 1",
		"heteromap_cache_misses_total 1",
		`heteromap_model_requests_total{model="tree"} 1`,
		"heteromap_request_duration_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestHTTPErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name   string
		url    string
		body   string
		status int
	}{
		{"bad json", "/v1/predict", "{", http.StatusBadRequest},
		{"no characterization", "/v1/predict", "{}", http.StatusBadRequest},
		{"both bench and features", "/v1/predict",
			`{"bench":"BFS","vertices":1,"edges":1,"max_degree":1,"diameter":1,"features":[0.1]}`,
			http.StatusBadRequest},
		{"bad feature count", "/v1/predict", `{"features":[0.1,0.2]}`, http.StatusBadRequest},
		{"unknown bench", "/v1/predict",
			`{"bench":"Nope","vertices":1,"edges":1,"max_degree":1,"diameter":1}`,
			http.StatusBadRequest},
		{"missing counts", "/v1/predict", `{"bench":"BFS"}`, http.StatusBadRequest},
		{"unknown model", "/v1/predict",
			`{"model":"nope","bench":"BFS","vertices":1,"edges":1,"max_degree":1,"diameter":1}`,
			http.StatusNotFound},
		{"empty batch", "/v1/predict/batch", `{"requests":[]}`, http.StatusBadRequest},
		{"reload missing fields", "/v1/reload", `{}`, http.StatusBadRequest},
		{"reload missing file", "/v1/reload", `{"model":"db","path":"/does/not/exist"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
	// GET on a POST endpoint.
	resp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET predict: status %d", resp.StatusCode)
	}
}

// Hot-swapping a model while requests are in flight must never drop or
// corrupt a request: every response is valid, carries one of the
// registered versions, and decodes to one of the two legitimate Ms.
func TestHotSwapUnderLoad(t *testing.T) {
	pair := machine.PrimaryPair()
	s, ts := newTestServer(t, Options{Pair: pair})
	limits := pair.Limits()

	mA := config.DefaultGPU(limits)
	mB := config.DefaultMulticore(limits)
	wantA, wantB := mA.Clamp(limits), mB.Clamp(limits)
	if _, err := s.Registry().Register("live", "vA", fixedPred{m: mA}); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var swaps atomic.Int64
	var wg sync.WaitGroup

	// Swapper: flip the model as fast as it can.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			p := fixedPred{m: mA}
			src := "vA"
			if i%2 == 1 {
				p = fixedPred{m: mB}
				src = "vB"
			}
			if _, err := s.Registry().Register("live", src, p); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
			swaps.Add(1)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Clients: hammer the swapped model with varying inputs.
	const clients = 8
	var served atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			benches := algo.All()
			for i := 0; !stop.Load(); i++ {
				b := benches[(c+i)%len(benches)]
				resp, body := postJSON(t, ts.URL+"/v1/predict", PredictRequest{
					Model: "live", Bench: b.Name,
					Vertices: int64(1e6 * (1 + i%50)), Edges: 1e8,
					MaxDegree: 5000, Diameter: 100,
				})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d: %s", c, resp.StatusCode, body)
					return
				}
				var pr PredictResponse
				if err := json.Unmarshal(body, &pr); err != nil {
					t.Errorf("client %d: decode: %v", c, err)
					return
				}
				if pr.M != wantA && pr.M != wantB {
					t.Errorf("client %d: corrupt M %v", c, pr.M)
					return
				}
				served.Add(1)
			}
		}(c)
	}

	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if served.Load() == 0 || swaps.Load() < 10 {
		t.Fatalf("weak exercise: %d served, %d swaps", served.Load(), swaps.Load())
	}
}

// The load generator must run clean against a live server and report a
// nonzero throughput, a hot cache and the server's stage breakdown.
func TestLoadGenAgainstServer(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	res, err := RunLoadGen(LoadGenOptions{
		URL:         ts.URL,
		Duration:    300 * time.Millisecond,
		Concurrency: 4,
		Combos:      16,
		Seed:        7,
		Stages:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("loadgen saw %d errors", res.Errors)
	}
	if res.Predictions == 0 || res.Throughput <= 0 {
		t.Fatalf("no throughput: %+v", res)
	}
	if res.CacheHitRate <= 0 {
		t.Fatalf("cache never hit: %+v", res)
	}
	if res.P50 <= 0 || res.ServerP50 <= 0 {
		t.Fatalf("latency quantiles missing: %+v", res)
	}
	var stages []string
	for _, st := range res.Stages {
		stages = append(stages, st.Stage)
	}
	if got := strings.Join(stages, ","); got != "queue,shed,batch,cache,inference,total" ||
		res.Stages[5].Count == 0 || res.Stages[5].P50 <= 0 {
		t.Fatalf("server stages = %+v", res.Stages)
	}
	if !strings.Contains(res.String(), "throughput") {
		t.Fatal("report missing throughput line")
	}

	// Batch mode exercises /v1/predict/batch.
	res, err = RunLoadGen(LoadGenOptions{
		URL: ts.URL, Duration: 200 * time.Millisecond,
		Concurrency: 2, BatchSize: 8, Combos: 16, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Predictions == 0 {
		t.Fatalf("batch loadgen: %+v", res)
	}
}
