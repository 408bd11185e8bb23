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

// predictFeat sends one raw-feature request down the predict path.
func predictFeat(ctx context.Context, s *Server, model string, f feature.Vector) (PredictResponse, int, error) {
	return s.predictOne(ctx, &PredictRequest{Model: model, Features: f[:]})
}

// Concurrent identical misses share one inference through the
// singleflight, and a repeat request is a cache hit.
func TestBatcherDedupAndCache(t *testing.T) {
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
			r, _, err := predictFeat(context.Background(), s, "live", f)
			if err != nil {
				t.Errorf("predict %d: %v", i, err)
				return
			}
			resps[i] = r
		}(i)
	}
	wg.Wait()

	if calls := pred.calls.Load(); calls != 1 {
		t.Fatalf("%d inferences for %d identical concurrent misses, want 1", calls, n)
	}
	uncached := 0
	for i, r := range resps {
		if r.M != resps[0].M {
			t.Fatalf("response %d diverged: %v vs %v", i, r.M, resps[0].M)
		}
		if !r.Cached {
			uncached++
		}
	}
	// Only the leader ran the inference; followers (and any request that
	// arrived after the answer was cached) report Cached.
	if uncached != 1 {
		t.Fatalf("%d responses report an uncached answer, want 1", uncached)
	}
	// Every request was answered by the one pass or by the cache.
	hits, _, _ := s.cache.Stats()
	m := s.Metrics()
	if m.Batches.Load() != 1 || m.BatchItems.Load()+hits != n {
		t.Fatalf("inference metrics: %d passes answering %d items (+%d hits), want 1 pass for %d",
			m.Batches.Load(), m.BatchItems.Load(), hits, n)
	}

	// A follow-up for the same key must be served from the cache.
	r, _, err := predictFeat(context.Background(), s, "live", f)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Cached {
		t.Fatal("repeat request not served from cache")
	}
	if pred.calls.Load() != 1 {
		t.Fatal("cache hit still ran inference")
	}
}

// With every admission slot taken, a further miss is shed with 503 and
// counted instead of blocking.
func TestBatcherQueueFull(t *testing.T) {
	gate := newGatedPred(t)
	s := missServer(t, Options{QueueSize: 1}, gate)

	first := make(chan error, 1)
	go func() {
		_, _, err := predictFeat(context.Background(), s, "live", testFeature(0))
		first <- err
	}()
	<-gate.entered // the only slot is held by a running inference

	const extra = 7
	for i := 1; i <= extra; i++ {
		_, status, err := predictFeat(context.Background(), s, "live", testFeature(i))
		if err != ErrQueueFull || status != http.StatusServiceUnavailable {
			t.Fatalf("miss %d: status %d err %v, want 503 %v", i, status, err, ErrQueueFull)
		}
	}
	gate.open()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().QueueFull.Load(); got != extra {
		t.Fatalf("QueueFull metric %d != %d rejections", got, extra)
	}
}

// A miss whose deadline passes before its answer gets 504, counted as a
// deadline drop. A lone miss leads its inference: it gets 504 once the
// inference returns, and the answer is still cached. A follower gets 504
// as soon as its deadline passes while it waits on the leader, and the
// leader is still answered.
func TestBatcherContextCancel(t *testing.T) {
	pair := machine.PrimaryPair()
	lone := missServer(t, Options{Pair: pair}, &slowPred{m: config.DefaultGPU(pair.Limits()), delay: 50 * time.Millisecond})
	lctx, lcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer lcancel()
	if _, status, err := predictFeat(lctx, lone, "live", testFeature(1)); err != context.DeadlineExceeded || status != http.StatusGatewayTimeout {
		t.Fatalf("lone miss: status %d err %v, want 504 deadline exceeded", status, err)
	}
	if got := lone.Metrics().DeadlineDrops.Load(); got != 1 {
		t.Fatalf("lone miss: DeadlineDrops = %d, want 1", got)
	}
	if r, _, err := predictFeat(context.Background(), lone, "live", testFeature(1)); err != nil || !r.Cached {
		t.Fatalf("repeat of the late miss: cached %v err %v, want its cached answer", r.Cached, err)
	}

	gate := newGatedPred(t)
	s := missServer(t, Options{}, gate)
	f := testFeature(1)

	lead := make(chan error, 1)
	go func() {
		_, _, err := predictFeat(context.Background(), s, "live", f)
		lead <- err
	}()
	<-gate.entered // the leader is inside its inference

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, status, err := predictFeat(ctx, s, "live", f)
	if err != context.DeadlineExceeded || status != http.StatusGatewayTimeout {
		t.Fatalf("follower: status %d err %v, want 504 deadline exceeded", status, err)
	}
	if got := s.Metrics().DeadlineDrops.Load(); got != 1 {
		t.Fatalf("DeadlineDrops = %d, want 1", got)
	}
	gate.open()
	if err := <-lead; err != nil {
		t.Fatalf("leader: %v", err)
	}
}

// A batch row repeated inside the request shares the first one's
// inference and reports Cached, as a pre-warmed row does. The model is
// not batch-capable, so its one pass consults the rows one by one.
func TestBatchRepeatedRowSharesInference(t *testing.T) {
	pair := machine.PrimaryPair()
	pred := &countingPred{m: config.DefaultGPU(pair.Limits())}
	s := missServer(t, Options{Pair: pair}, pred)
	if r, _, err := predictFeat(context.Background(), s, "live", testFeature(0)); err != nil || r.Cached {
		t.Fatalf("warm-up: cached %v err %v", r.Cached, err)
	}

	rows := []int{1, 2, 1, 0, 2, 1} // testFeature indices; 0 is warm
	wantCached := []bool{false, false, true, true, true, true}
	reqs := make([]PredictRequest, len(rows))
	for i, r := range rows {
		f := testFeature(r)
		reqs[i] = PredictRequest{Model: "live", Features: f[:]}
	}
	resps, _ := s.predictBatch(context.Background(), reqs)
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

// blockOnPred answers at once, except for the feature block: its
// inference signals entered and waits for release. It counts the
// inferences of each feature.
type blockOnPred struct {
	m       config.M
	block   feature.Vector
	entered chan struct{}
	release chan struct{}
	once    sync.Once

	mu    sync.Mutex
	calls map[feature.Vector]int
}

func newBlockOnPred(t *testing.T, block feature.Vector) *blockOnPred {
	p := &blockOnPred{
		m:       config.DefaultGPU(machine.PrimaryPair().Limits()),
		block:   block,
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
		calls:   make(map[feature.Vector]int),
	}
	t.Cleanup(p.open)
	return p
}

func (p *blockOnPred) open()        { p.once.Do(func() { close(p.release) }) }
func (p *blockOnPred) Name() string { return "BlockOn" }
func (p *blockOnPred) Predict(f feature.Vector) config.M {
	p.mu.Lock()
	p.calls[f]++
	p.mu.Unlock()
	if f == p.block {
		p.entered <- struct{}{}
		<-p.release
	}
	return p.m
}

func (p *blockOnPred) callsFor(f feature.Vector) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls[f]
}

// A batch answers the rows it leads before it waits on rows that other
// requests lead. A single request leads A and is parked in the
// predictor; a batch [A, X] then follows A's flight, yet X is inferred
// and served from the cache while A is still blocked. Once A is
// released, the batch answers A as a follower and X from its own
// inference, with one inference of each.
func TestBatchLandsBeforeWaiting(t *testing.T) {
	a := testFeature(3).Discretized(feature.DiscretizationStep)
	x := testFeature(4).Discretized(feature.DiscretizationStep)
	pred := newBlockOnPred(t, a)
	s := missServer(t, Options{}, pred)

	single := make(chan error, 1)
	go func() {
		_, _, err := predictFeat(context.Background(), s, "live", a)
		single <- err
	}()
	<-pred.entered // the single request leads A and is parked

	batch := make(chan []PredictResponse, 1)
	go func() {
		resps, _ := s.predictBatch(context.Background(), []PredictRequest{
			{Model: "live", Features: a[:]},
			{Model: "live", Features: x[:]},
		})
		batch <- resps
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if _, _, _, ok := s.PredictCached("live", x); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("X was not served from the cache while the batch waited on A")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-batch:
		t.Fatal("batch answered while A was still blocked")
	default:
	}

	pred.open()
	if err := <-single; err != nil {
		t.Fatalf("single request: %v", err)
	}
	resps := <-batch
	if r := resps[0]; r.Error != "" || !r.Cached {
		t.Fatalf("A: cached %v error %q, want the single request's answer", r.Cached, r.Error)
	}
	if r := resps[1]; r.Error != "" || r.Cached {
		t.Fatalf("X: cached %v error %q, want the batch's own inference", r.Cached, r.Error)
	}
	if na, nx := pred.callsFor(a), pred.callsFor(x); na != 1 || nx != 1 {
		t.Fatalf("inferences: A %d, X %d, want one each", na, nx)
	}
}

// A led row answered before its deadline keeps its answer when the call
// then waits past the deadline on a row another request leads: only the
// followed row gets 504.
func TestBatchDeadlineSparesLedRows(t *testing.T) {
	a := testFeature(3).Discretized(feature.DiscretizationStep)
	x := testFeature(4).Discretized(feature.DiscretizationStep)
	pred := newBlockOnPred(t, a)
	s := missServer(t, Options{}, pred)

	single := make(chan error, 1)
	go func() {
		_, _, err := predictFeat(context.Background(), s, "live", a)
		single <- err
	}()
	<-pred.entered // the single request leads A and is parked

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	resps, failed := s.predictBatch(ctx, []PredictRequest{
		{Model: "live", Features: a[:]},
		{Model: "live", Features: x[:]},
	})
	if want := context.DeadlineExceeded.Error(); resps[0].Error != want {
		t.Fatalf("A: error %q, want %q", resps[0].Error, want)
	}
	if r := resps[1]; r.Error != "" || r.Cached {
		t.Fatalf("X: cached %v error %q, want the batch's own answer", r.Cached, r.Error)
	}
	if !failed {
		t.Fatal("a batch with a 504 row did not report a failed item")
	}
	if got := s.Metrics().DeadlineDrops.Load(); got != 1 {
		t.Fatalf("DeadlineDrops = %d, want 1", got)
	}
	pred.open()
	if err := <-single; err != nil {
		t.Fatalf("single request: %v", err)
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
