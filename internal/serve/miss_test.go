package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heteromap/internal/config"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/online"
	"heteromap/internal/predict"
)

// countingPred counts inference calls, sleeping delay before each
// answer; the dedup assertions use it.
type countingPred struct {
	calls atomic.Int64
	m     config.M
	delay time.Duration
}

func (p *countingPred) Name() string { return "Counting" }
func (p *countingPred) Predict(feature.Vector) config.M {
	p.calls.Add(1)
	time.Sleep(p.delay)
	return p.m
}

// slowPred sleeps before answering, to hold misses in flight in tests.
type slowPred struct {
	m     config.M
	delay time.Duration
}

func (p *slowPred) Name() string { return "Slow" }
func (p *slowPred) Predict(feature.Vector) config.M {
	time.Sleep(p.delay)
	return p.m
}

// gatedPred holds every inference until release: each inference signals
// entered once it is running, so a test knows exactly which misses are
// in flight.
type gatedPred struct {
	m       config.M
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGatedPred(t *testing.T) *gatedPred {
	p := &gatedPred{
		m:       config.DefaultGPU(machine.PrimaryPair().Limits()),
		entered: make(chan struct{}, 64), // more than any test starts
		release: make(chan struct{}),
	}
	t.Cleanup(p.open)
	return p
}

func (p *gatedPred) open()        { p.once.Do(func() { close(p.release) }) }
func (p *gatedPred) Name() string { return "Gated" }
func (p *gatedPred) Predict(feature.Vector) config.M {
	p.entered <- struct{}{}
	<-p.release
	return p.m
}

func testFeature(i int) feature.Vector {
	var f feature.Vector
	for j := range f {
		f[j] = float64((i+j)%11) / 10
	}
	return f
}

// missServer builds a server (without listening) whose only model,
// "live", is pred.
func missServer(t *testing.T, opts Options, pred predict.Predictor) *Server {
	t.Helper()
	if opts.Pair.GPU == nil {
		opts.Pair = machine.PrimaryPair()
	}
	s := New(opts)
	if _, err := s.Registry().Register("live", "test", pred); err != nil {
		t.Fatal(err)
	}
	return s
}

// predictFeat sends one raw-feature request down the request path, as
// /v1/predict does, and returns its answer and its failure status (0
// when it was served).
func predictFeat(ctx context.Context, s *Server, model string, f feature.Vector) (PredictResponse, int) {
	resps, status := s.predict(ctx, []PredictRequest{{Model: model, Features: f[:]}})
	return resps[0], status
}

// Concurrent identical misses agree: every request answers the same M,
// each is either a cache hit or runs a pass of its own, and a repeat
// request is a cache hit that runs no inference.
func TestConcurrentMissesAgree(t *testing.T) {
	pair := machine.PrimaryPair()
	pred := &countingPred{m: config.DefaultGPU(pair.Limits()), delay: 20 * time.Millisecond}
	s := missServer(t, Options{Pair: pair}, pred)
	f := testFeature(0)

	const n = 16
	var wg sync.WaitGroup
	resps := make([]PredictResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, status := predictFeat(context.Background(), s, "live", f)
			if status != 0 {
				t.Errorf("predict %d: status %d: %s", i, status, r.Error)
				return
			}
			resps[i] = r
		}(i)
	}
	wg.Wait()

	uncached := uint64(0)
	for i, r := range resps {
		if r.M != pred.m {
			t.Fatalf("response %d: M %v, want %v", i, r.M, pred.m)
		}
		if !r.Cached {
			uncached++
		}
	}
	// Each request ran one single-row pass or hit the cache.
	hits, _, _ := s.cache.Stats()
	m := s.Metrics()
	passes, calls := m.Batches.Load(), uint64(pred.calls.Load())
	if passes == 0 || passes != calls || passes != uncached {
		t.Fatalf("%d passes, %d inferences, %d uncached answers: want equal and non-zero", passes, calls, uncached)
	}
	if m.BatchItems.Load()+hits != n {
		t.Fatalf("%d items answered by passes + %d hits, want %d", m.BatchItems.Load(), hits, n)
	}

	// A follow-up for the same key must be served from the cache.
	r, status := predictFeat(context.Background(), s, "live", f)
	if status != 0 {
		t.Fatalf("status %d: %s", status, r.Error)
	}
	if !r.Cached {
		t.Fatal("repeat request not served from cache")
	}
	if uint64(pred.calls.Load()) != calls {
		t.Fatal("cache hit still ran inference")
	}
}

// With every admission slot taken, a further miss is shed with 503 and
// counted instead of blocking.
func TestBatcherQueueFull(t *testing.T) {
	gate := newGatedPred(t)
	s := missServer(t, Options{QueueSize: 1}, gate)

	first := make(chan int, 1)
	go func() {
		_, status := predictFeat(context.Background(), s, "live", testFeature(0))
		first <- status
	}()
	<-gate.entered // the only slot is held by a running inference

	const extra = 7
	for i := 1; i <= extra; i++ {
		r, status := predictFeat(context.Background(), s, "live", testFeature(i))
		if status != http.StatusServiceUnavailable || r.Error != ErrQueueFull.Error() {
			t.Fatalf("miss %d: status %d error %q, want 503 %q", i, status, r.Error, ErrQueueFull)
		}
	}
	gate.open()
	if status := <-first; status != 0 {
		t.Fatalf("the admitted miss failed with status %d", status)
	}
	if got := s.Metrics().QueueFull.Load(); got != extra {
		t.Fatalf("QueueFull metric %d != %d rejections", got, extra)
	}
}

// A miss whose deadline passes before its answer gets 504, counted as a
// deadline drop, once its inference returns; the answer is still cached.
func TestBatcherContextCancel(t *testing.T) {
	pair := machine.PrimaryPair()
	s := missServer(t, Options{Pair: pair}, &slowPred{m: config.DefaultGPU(pair.Limits()), delay: 50 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if r, status := predictFeat(ctx, s, "live", testFeature(1)); status != http.StatusGatewayTimeout || r.Error != context.DeadlineExceeded.Error() {
		t.Fatalf("status %d error %q, want 504 %q", status, r.Error, context.DeadlineExceeded)
	}
	if got := s.Metrics().DeadlineDrops.Load(); got != 1 {
		t.Fatalf("DeadlineDrops = %d, want 1", got)
	}
	if r, status := predictFeat(context.Background(), s, "live", testFeature(1)); status != 0 || !r.Cached {
		t.Fatalf("repeat of the late miss: cached %v status %d, want its cached answer", r.Cached, status)
	}
}

// A batch row repeated inside the request shares the first one's
// inference and reports Cached, as a pre-warmed row does. The model is
// not batch-capable, so its one pass consults the rows one by one.
func TestBatchRepeatedRowSharesInference(t *testing.T) {
	pair := machine.PrimaryPair()
	pred := &countingPred{m: config.DefaultGPU(pair.Limits())}
	s := missServer(t, Options{Pair: pair}, pred)
	if r, status := predictFeat(context.Background(), s, "live", testFeature(0)); status != 0 || r.Cached {
		t.Fatalf("warm-up: cached %v status %d", r.Cached, status)
	}

	rows := []int{1, 2, 1, 0, 2, 1} // testFeature indices; 0 is warm
	wantCached := []bool{false, false, true, true, true, true}
	reqs := make([]PredictRequest, len(rows))
	for i, r := range rows {
		f := testFeature(r)
		reqs[i] = PredictRequest{Model: "live", Features: f[:]}
	}
	resps, _ := s.predict(context.Background(), reqs)
	if len(resps) != len(rows) {
		t.Fatalf("batch answered %d of %d rows", len(resps), len(rows))
	}
	for i, r := range resps {
		if r.Error != "" {
			t.Fatalf("row %d errored: %s", i, r.Error)
		}
		if r.Cached != wantCached[i] {
			t.Fatalf("row %d: cached = %v, want %v", i, r.Cached, wantCached[i])
		}
		if r.M != pred.m {
			t.Fatalf("row %d: M %v, want %v", i, r.M, pred.m)
		}
	}
	// One inference for the warm-up and one per distinct missed row.
	if calls := pred.calls.Load(); calls != 3 {
		t.Fatalf("%d inferences, want 3", calls)
	}
	m := s.Metrics()
	if m.Batches.Load() != 2 || m.BatchItems.Load() != 6 {
		t.Fatalf("inference metrics: %d passes answering %d items, want 2 passes answering 6",
			m.Batches.Load(), m.BatchItems.Load())
	}
}

// probingServer builds a miss server whose "live" model is pred behind
// uncertainty routing with a floor above the neutral confidence, so an
// opaque predictor's every uncached answer is probed.
func probingServer(t *testing.T, pred predict.Predictor) *Server {
	t.Helper()
	pair := machine.PrimaryPair()
	mgr := online.New(online.Options{Pair: pair, Model: "live", UncertaintyFloor: 0.9})
	return missServer(t, Options{Pair: pair, Online: mgr}, pred)
}

// Two identical misses, the second arriving while the first is inside
// its inference, both serve the probed answer that the cache keeps, on
// a cell where the predictor's GPU answer is far from optimal.
func TestProbeServedToConcurrentMisses(t *testing.T) {
	gate := newGatedPred(t)
	s := probingServer(t, gate)
	f := shiftedCells(t, 1)[0]

	answers := make(chan PredictResponse, 2)
	ask := func() {
		r, status := predictFeat(context.Background(), s, "live", f)
		if status != 0 {
			t.Errorf("status %d: %s", status, r.Error)
		}
		answers <- r
	}
	go ask()
	<-gate.entered // the first request is inside its inference
	go ask()
	// Release both once the second is inside its own inference, or
	// after a second if it never gets there.
	select {
	case <-gate.entered:
	case <-time.After(time.Second):
	}
	gate.open()

	rs := []PredictResponse{<-answers, <-answers}
	m, used, _, ok := s.PredictCached("live", f.Discretized(feature.DiscretizationStep))
	for i, r := range rs {
		if r.PredictorUsed != online.ProbePredictor || r.M == gate.m {
			t.Fatalf("answer %d: %s %v (cached %v), want the probed answer", i, r.PredictorUsed, r.M, r.Cached)
		}
		if !ok || used != r.PredictorUsed || m != r.M {
			t.Fatalf("answer %d: %s %v, but the cache keeps %s %v (ok %v)", i, r.PredictorUsed, r.M, used, m, ok)
		}
	}
}

// A cell repeated inside one batch serves its first occurrence's
// probed answer, as a hit on the entry the probe left in the cache.
func TestProbeServedToBatchRepeat(t *testing.T) {
	gpu := config.DefaultGPU(machine.PrimaryPair().Limits())
	s := probingServer(t, fixedPred{m: gpu})
	f := shiftedCells(t, 1)[0]

	resps, status := s.predict(context.Background(), []PredictRequest{
		{Model: "live", Features: f[:]},
		{Model: "live", Features: f[:]},
	})
	if status != 0 {
		t.Fatalf("batch failed with status %d: %+v", status, resps)
	}
	first, repeat := resps[0], resps[1]
	if first.Error != "" || first.Cached || first.PredictorUsed != online.ProbePredictor || first.M == gpu {
		t.Fatalf("first: %s %v (cached %v, error %q), want an uncached probed answer",
			first.PredictorUsed, first.M, first.Cached, first.Error)
	}
	if repeat.Error != "" || !repeat.Cached || repeat.PredictorUsed != first.PredictorUsed || repeat.M != first.M {
		t.Fatalf("repeat: %s %v (cached %v, error %q), want the first's probed answer, cached",
			repeat.PredictorUsed, repeat.M, repeat.Cached, repeat.Error)
	}
}

// A miss whose deadline passes during its pass still caches its final,
// probed answer, so the next request on the cell serves the probe's M
// from the cache and not the predictor's.
func TestLateMissCachesProbedAnswer(t *testing.T) {
	gpu := config.DefaultGPU(machine.PrimaryPair().Limits())
	s := probingServer(t, &slowPred{m: gpu, delay: 50 * time.Millisecond})
	f := shiftedCells(t, 1)[0]

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if r, status := predictFeat(ctx, s, "live", f); status != http.StatusGatewayTimeout {
		t.Fatalf("late miss: status %d error %q, want 504", status, r.Error)
	}
	r, status := predictFeat(context.Background(), s, "live", f)
	if status != 0 || !r.Cached || r.PredictorUsed != online.ProbePredictor || r.M == gpu {
		t.Fatalf("next request: %s %v (cached %v, status %d), want the probed answer from the cache",
			r.PredictorUsed, r.M, r.Cached, status)
	}
}

// Shutdown while slow misses are in flight answers every one of them
// with 200: each miss runs on its handler's goroutine, which graceful
// HTTP shutdown waits for. Afterwards new requests are refused.
func TestBatcherStopDrains(t *testing.T) {
	gate := newGatedPred(t)
	s := missServer(t, Options{Addr: "127.0.0.1:0"}, gate)
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Start() }()
	for deadline := time.Now().Add(2 * time.Second); s.ln.Load() == nil; {
		if time.Now().After(deadline) {
			t.Fatal("server never bound its listener")
		}
		time.Sleep(time.Millisecond)
	}
	url := "http://" + s.Addr() + "/v1/predict"

	const n = 8
	statuses := make(chan int, n)
	for i := 0; i < n; i++ {
		f := testFeature(i)
		body, err := json.Marshal(PredictRequest{Model: "live", Features: f[:]})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			resp, err := http.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				statuses <- -1
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	for i := 0; i < n; i++ {
		<-gate.entered // all n distinct misses are inside their inference
	}

	shut := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shut <- s.Shutdown(ctx)
	}()
	// Shutdown closes the listener first; only then release the misses.
	for deadline := time.Now().Add(2 * time.Second); ; {
		resp, err := http.Post(url, "application/json", bytes.NewReader(nil))
		if err != nil {
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after Shutdown began")
		}
		time.Sleep(time.Millisecond)
	}
	gate.open()

	if err := <-shut; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i := 0; i < n; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Fatalf("in-flight miss answered %d during Shutdown, want 200", st)
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Start returned %v after Shutdown", err)
	}
}

// assignRows opens one row per distinct key in order of first
// appearance and marks every later item of a key a repeat, also when
// distinct keys share a hash: here every key hashes alike, and under the
// real hash the same group gives the same rows.
func TestAssignRowsSharedHash(t *testing.T) {
	key := func(i int) CacheKey { return CacheKey{Model: "m", Version: 1, Feat: testFeature(i).Binary()} }
	keys := []CacheKey{key(0), key(1), key(0), key(2), key(1), key(1), key(3)}
	wantRow := []int{0, 1, 0, 2, 1, 1, 3}
	wantRepeat := []bool{false, false, true, false, true, true, false}
	for _, h := range []struct {
		name string
		hash func(CacheKey) uint64
	}{
		{"one hash", func(CacheKey) uint64 { return 7 }},
		{"CacheKey.hash", CacheKey.hash},
	} {
		items := make([]batchItem, len(keys)+1)
		group := make([]int, len(keys))
		for g, k := range keys {
			group[g] = g + 1 // items[0] is outside the group
			items[g+1].key, items[g+1].row, items[g+1].repeat = k, -1, true
		}
		assignRows(items, group, h.hash)
		for g, i := range group {
			if items[i].row != wantRow[g] || items[i].repeat != wantRepeat[g] {
				t.Errorf("%s: item %d got row %d repeat %v, want row %d repeat %v",
					h.name, g, items[i].row, items[i].repeat, wantRow[g], wantRepeat[g])
			}
		}
		if items[0].row != 0 || items[0].repeat {
			t.Errorf("%s: an item outside the group was written", h.name)
		}
	}
	if testFeature(0).Binary() == testFeature(1).Binary() {
		t.Fatal("test keys are not distinct")
	}
}
