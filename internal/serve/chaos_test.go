package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heteromap/internal/config"
	"heteromap/internal/fault"
	"heteromap/internal/machine"
)

// Inferences slower than breakerSlowInference trip the per-version
// breaker; once open, misses route straight to last-known-good without
// paying the slow primary, and the tripped state is visible in /metrics.
func TestBreakerOpensAndRoutesToLastGood(t *testing.T) {
	pair := machine.PrimaryPair()
	s := New(Options{Pair: pair, BreakerThreshold: 2, BreakerCooldown: 1000})
	r := s.Registry()
	limits := pair.Limits()
	fast, _ := r.Register("live", "v1-fast", fixedPred{m: config.DefaultGPU(limits)})
	slow, _ := r.Register("live", "v2-slow", &slowPred{m: config.DefaultMulticore(limits), delay: 60 * time.Millisecond})

	// Two slow inferences (distinct keys so the cache cannot answer)
	// open the breaker.
	for i := 0; i < 2; i++ {
		if _, _, err := predictFeat(context.Background(), s, "live", testFeature(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := slow.Breaker().State(); st.String() != "open" {
		_, failures := slow.Breaker().Stats()
		t.Fatalf("breaker = %s after %d failures", st, failures)
	}

	start := time.Now()
	resp, _, err := predictFeat(context.Background(), s, "live", testFeature(9))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != fast.Version {
		t.Fatalf("open breaker did not route to last-known-good: version %d", resp.Version)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Fatalf("breaker-routed miss still waited %v", elapsed)
	}
	if s.Metrics().BreakerRouted.Load() == 0 {
		t.Fatal("BreakerRouted not counted")
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	want := "heteromap_model_breaker_state{model=\"live\",version=\"2\"} 1"
	if !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("tripped breaker not visible in /metrics: missing %q", want)
	}
}

// Injected slow-model chaos stalls the primary only: once the stalls
// trip its breaker, routed misses on last-known-good answer promptly and
// draw no stall.
func TestChaosSlowModelSparesBreakerRoute(t *testing.T) {
	pair := machine.PrimaryPair()
	inj := fault.NewServeInjector(7)
	inj.SetServeProfile(fault.ServeProfile{SlowModelRate: 1, SlowModelDelay: 40 * time.Millisecond})
	s := New(Options{Pair: pair, BreakerThreshold: 2, BreakerCooldown: 1000, Chaos: inj})
	limits := pair.Limits()
	good, _ := s.Registry().Register("live", "v1", fixedPred{m: config.DefaultGPU(limits)})
	primary, _ := s.Registry().Register("live", "v2", fixedPred{m: config.DefaultMulticore(limits)})

	for i := 0; i < 2; i++ {
		if _, _, err := predictFeat(context.Background(), s, "live", testFeature(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := primary.Breaker().State(); st != fault.BreakerOpen {
		t.Fatalf("breaker = %s after two injected stalls", st)
	}
	start := time.Now()
	resp, _, err := predictFeat(context.Background(), s, "live", testFeature(9))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != good.Version {
		t.Fatalf("open breaker did not route to last-known-good: version %d", resp.Version)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Fatalf("breaker-routed miss waited %v", elapsed)
	}
	if got := s.Metrics().ChaosSlowModel.Load(); got != 2 {
		t.Fatalf("ChaosSlowModel = %d, want 2 (primary inferences only)", got)
	}
}

// Admission-saturation chaos sheds misses with 503 ErrQueueFull.
func TestChaosQueueReject(t *testing.T) {
	inj := fault.NewServeInjector(7)
	inj.SetServeProfile(fault.ServeProfile{QueueRejectRate: 1})
	s := missServer(t, Options{Chaos: inj}, fixedPred{m: config.DefaultGPU(machine.PrimaryPair().Limits())})

	_, status, err := predictFeat(context.Background(), s, "live", testFeature(2))
	if err != ErrQueueFull || status != http.StatusServiceUnavailable {
		t.Fatalf("status %d err %v, want 503 ErrQueueFull", status, err)
	}
	m := s.Metrics()
	if m.ChaosQueueReject.Load() != 1 || m.QueueFull.Load() != 1 {
		t.Fatalf("chaos reject metrics: %d chaos, %d queue-full",
			m.ChaosQueueReject.Load(), m.QueueFull.Load())
	}
}

// The /v1/chaos endpoint: 409 without an injector; GET/POST round-trip
// the profile when armed; injected corrupt reloads are quarantined.
func TestChaosEndpoint(t *testing.T) {
	_, tsOff := newTestServer(t, Options{})
	resp, err := http.Get(tsOff.URL + "/v1/chaos")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("chaos without injector: status %d", resp.StatusCode)
	}

	inj := fault.NewServeInjector(11)
	s, ts := newTestServer(t, Options{Chaos: inj})
	resp, body := postJSON(t, ts.URL+"/v1/chaos", chaosRequest{CorruptReloadRate: 1, SlowModelRate: 0.5, SlowModelMS: 10})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chaos POST: %d %s", resp.StatusCode, body)
	}
	if p := inj.ServeProfile(); p.CorruptReloadRate != 1 || p.SlowModelDelay != 10*time.Millisecond {
		t.Fatalf("profile not applied: %+v", p)
	}

	resp, err = http.Get(ts.URL + "/v1/chaos")
	if err != nil {
		t.Fatal(err)
	}
	var got chaosRequest
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.CorruptReloadRate != 1 || got.SlowModelMS != 10 {
		t.Fatalf("chaos GET = %+v", got)
	}

	// Every reload is now corrupted in flight: 422 plus a quarantine
	// record, with the active model untouched.
	before := s.Registry().List()
	resp, body = postJSON(t, ts.URL+"/v1/reload", reloadRequest{Model: "tree", Path: "/ignored"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt-reload chaos: %d %s", resp.StatusCode, body)
	}
	if q := s.Registry().Quarantined(); len(q) != 1 || !strings.Contains(q[0].Reason, "chaos") {
		t.Fatalf("quarantine = %+v", q)
	}
	after := s.Registry().List()
	if len(after) != len(before) || after[0].Version != before[0].Version {
		t.Fatalf("chaos reload disturbed the registry: %+v -> %+v", before, after)
	}
}

// Oversized bodies are rejected with 413 before decoding; non-finite and
// out-of-range raw feature vectors with 400.
func TestRequestAdmissionLimits(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBodyBytes: 256})
	huge := `{"bench":"` + strings.Repeat("x", 4096) + `"}`
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d", resp.StatusCode)
	}

	for _, body := range []string{
		`{"features":[null,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1,0,0.1,0.2,0.3,0.4,1e400]}`,
		`{"features":[-0.5,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1,0,0.1,0.2,0.3,0.4,0.5]}`,
		`{"features":[1.5,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1,0,0.1,0.2,0.3,0.4,0.5]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// Under seeded rotating chaos the server keeps answering: availability
// stays at or above 99%, latency stays bounded, faults actually fired,
// and /healthz still answers 200 afterwards.
func TestChaosLoadGenAvailability(t *testing.T) {
	inj := fault.NewServeInjector(23)
	_, ts := newTestServer(t, Options{Chaos: inj})

	res, err := RunLoadGen(LoadGenOptions{
		URL:         ts.URL,
		Duration:    700 * time.Millisecond,
		Concurrency: 4,
		Combos:      16,
		Seed:        23,
		Chaos:       true,
		ChaosRate:   0.3,
		ChaosFlip:   120 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("no traffic ran")
	}
	if res.Availability < 0.99 {
		t.Fatalf("availability %.4f below 0.99: %+v", res.Availability, res)
	}
	if res.ChaosInjected == 0 {
		t.Fatalf("chaos never fired: %+v", res)
	}
	if res.ServerP99 > 2*time.Second {
		t.Fatalf("p99 unbounded under chaos: %v", res.ServerP99)
	}
	if !strings.Contains(res.String(), "availability") ||
		!strings.Contains(res.String(), "self-healing") {
		t.Fatalf("report missing resilience lines:\n%s", res)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after chaos: %d", resp.StatusCode)
	}
	// The flipper's exit leaves the profile calm.
	if inj.ServeProfile().Active() {
		t.Fatalf("chaos profile not reset: %v", inj.ServeProfile())
	}
}

// The acceptance integration: bad reloads interleaved with live traffic
// error out, auto-roll back, and served predictions stay byte-identical
// throughout.
func TestBadReloadsUnderLoadKeepPredictionsIdentical(t *testing.T) {
	pair := machine.PrimaryPair()
	s, ts := newTestServer(t, Options{Pair: pair, Canary: &CanaryConfig{
		MaxLatency: time.Second,
	}})

	reqs := make([]PredictRequest, 6)
	for i := range reqs {
		reqs[i] = PredictRequest{
			Model: "tree", Bench: "BFS",
			Vertices: int64(1e6 * (i + 1)), Edges: int64(2e7 * (i + 1)),
			MaxDegree: 5000, Diameter: 100,
		}
	}
	baseline := make([]string, len(reqs))
	for i, req := range reqs {
		resp, body := postJSON(t, ts.URL+"/v1/predict", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("baseline %d: %d %s", i, resp.StatusCode, body)
		}
		var pr PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		mj, _ := json.Marshal(pr.M)
		baseline[i] = string(mj)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	var reloadAttempts atomic.Int64

	// Reloader: hammer /v1/reload with files that must be rejected.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			resp, _ := postJSON(t, ts.URL+"/v1/reload",
				reloadRequest{Model: "tree", Path: "/does/not/exist.hmdb"})
			if resp.StatusCode == http.StatusOK {
				t.Error("bad reload accepted")
				return
			}
			reloadAttempts.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Clients: replay the request set and demand byte-identical answers.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				k := (c + i) % len(reqs)
				resp, body := postJSON(t, ts.URL+"/v1/predict", reqs[k])
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: %d %s", c, resp.StatusCode, body)
					return
				}
				var pr PredictResponse
				if err := json.Unmarshal(body, &pr); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				mj, _ := json.Marshal(pr.M)
				if string(mj) != baseline[k] {
					t.Errorf("client %d: prediction drifted during bad reloads:\n got %s\nwant %s",
						c, mj, baseline[k])
					return
				}
			}
		}(c)
	}

	time.Sleep(250 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if reloadAttempts.Load() < 5 {
		t.Fatalf("only %d reload attempts ran", reloadAttempts.Load())
	}
	if len(s.Registry().Quarantined()) == 0 {
		t.Fatal("rejected reloads left no quarantine records")
	}
	if s.Metrics().ReloadRejected.Load() == 0 {
		t.Fatal("ReloadRejected never counted")
	}
	// /v1/models must expose both the healthy model and the quarantine.
	resp, body := postJSON(t, ts.URL+"/v1/predict", reqs[0])
	resp.Body.Close()
	var pr PredictResponse
	json.Unmarshal(body, &pr)
	mresp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models struct {
		Models     []ModelInfo      `json:"models"`
		Quarantine []QuarantineInfo `json:"quarantine"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if len(models.Models) != 1 || models.Models[0].Version != pr.Version {
		t.Fatalf("models = %+v, serving version %d", models.Models, pr.Version)
	}
	if len(models.Quarantine) == 0 {
		t.Fatal("/v1/models hides the quarantine")
	}
}
