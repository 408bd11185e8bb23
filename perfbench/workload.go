package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"heteromap/internal/cluster"
	"heteromap/internal/config"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/predict/dtree"
	"heteromap/internal/predict/nn"
	"heteromap/internal/serve"
	"heteromap/internal/train"
)

// workload is one traffic mix. Each exists because it stresses a
// different part of the serve path; README.md records why.
type workload struct {
	name string
	// batch is the item count per /v1/predict/batch request; 0 sends
	// single /v1/predict requests.
	batch int
	// deep registers Deep.128 as the default model beside the tree, the
	// way `heteromap serve -predictor deep` does.
	deep bool
	// sideCluster starts cluster.StartLocal's router tier beside the node
	// in traced runs and feeds it the ladder's bodies, so the router tier
	// is measured by a workload that does not cross it.
	sideCluster bool
	// order picks the key stream: "uniform" over a small hot set, or
	// "fresh" (never-repeating keys).
	order string
	// hot is the hot-set size; fresh is the number of distinct fresh
	// keys generated for the run (far above the 4096-entry cache).
	hot, fresh int
}

// workloads are the ones BENCHMARK.json lists.
var workloads = []workload{
	{name: "hit-tree", order: "uniform", hot: 64, sideCluster: true},
	{name: "miss-tree", order: "fresh", fresh: 16384},
	{name: "batch-deep128", batch: 32, deep: true, order: "fresh", hot: 64, fresh: 16384},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// modelName is the registry entry the workload's requests name.
func (w workload) modelName() string {
	if w.deep {
		return "deep"
	}
	return "tree"
}

func (w workload) path() string {
	if w.batch > 0 {
		return "/v1/predict/batch"
	}
	return "/v1/predict"
}

// request is one prepared round trip: its body and, per item, the
// reference answer's "m" object bytes.
type request struct {
	body  []byte
	feats []feature.Vector
	want  [][]byte
}

// inputs are everything the workload sends, generated from the seed
// alone: the request pool, the ladder's replay sample and the
// decision-quality sample. On fresh-key workloads the ladder sample is
// never sent in the timed phase, so its keys stay cold for the ladder;
// otherwise it is drawn from the pool like the clients' requests.
type inputs struct {
	pool    []request
	ladder  []request
	quality []qualityKey
}

// qualityKey is one decision-quality sample point: the key's features
// and the synthetic job they characterize (as in conformance.RunOracle).
type qualityKey struct {
	feat feature.Vector
	job  machine.Job
}

const (
	ladderBodies  = 256
	qualityPoints = 256
	qualitySeed   = 1729
)

// genKeys draws n distinct discretized characterizations from the
// training distribution (train.RandomB/RandomI).
func genKeys(rng *rand.Rand, n int, seen map[feature.Vector]bool) []feature.Vector {
	out := make([]feature.Vector, 0, n)
	for len(out) < n {
		f := feature.Combine(train.RandomB(rng), train.RandomI(rng)).Discretized(feature.DiscretizationStep)
		if seen[f] {
			continue
		}
		seen[f] = true
		out = append(out, f)
	}
	return out
}

// genInputs builds the workload's inputs from the seed.
func genInputs(w workload, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[feature.Vector]bool{}
	hot := genKeys(rng, w.hot, seen)
	fresh := genKeys(rng, w.fresh, seen)
	in := &inputs{}
	var err error
	switch {
	case w.batch > 0:
		// Half of each batch comes from the hot set, half is fresh.
		half := w.batch / 2
		// A batch body holds many items, so its ladder sample is smaller.
		nLadder := ladderBodies / 4
		nBodies := len(fresh)/half - nLadder
		for i := 0; i < nBodies+nLadder; i++ {
			items := make([]feature.Vector, 0, w.batch)
			for _, f := range fresh[i*half : (i+1)*half] {
				items = append(items, hot[rng.Intn(len(hot))], f)
			}
			r, e := newRequest(w, items)
			if e != nil {
				return nil, e
			}
			if i < nBodies {
				in.pool = append(in.pool, r)
			} else {
				in.ladder = append(in.ladder, r)
			}
		}
	case w.order == "fresh":
		if in.pool, err = singles(w, fresh[:len(fresh)-ladderBodies]); err != nil {
			return nil, err
		}
		if in.ladder, err = singles(w, fresh[len(fresh)-ladderBodies:]); err != nil {
			return nil, err
		}
	default:
		// The ladder draws from this pool once the references are set.
		if in.pool, err = singles(w, hot); err != nil {
			return nil, err
		}
	}

	// The quality sample is drawn from the same key distribution under a
	// fixed seed, so decision_gap_mean measures the served model, not the
	// run's seed (over 256 keys the gap's heavy tail would otherwise move
	// the mean by more than any bound between seeds).
	qrng := rand.New(rand.NewSource(qualitySeed))
	for _, f := range genKeys(qrng, qualityPoints, map[feature.Vector]bool{}) {
		combo := train.Synthesize(f.B(), f.I(), qrng)
		in.quality = append(in.quality, qualityKey{
			feat: f,
			job:  machine.Job{Work: combo.Work, FootprintBytes: combo.Footprint},
		})
	}
	return in, nil
}

func singles(w workload, keys []feature.Vector) ([]request, error) {
	out := make([]request, len(keys))
	for i, f := range keys {
		r, err := newRequest(w, []feature.Vector{f})
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

func newRequest(w workload, items []feature.Vector) (request, error) {
	reqs := make([]serve.PredictRequest, len(items))
	for i := range items {
		reqs[i] = serve.PredictRequest{Model: w.modelName(), Features: append([]float64(nil), items[i][:]...)}
	}
	var body []byte
	var err error
	if w.batch > 0 {
		body, err = json.Marshal(serve.BatchRequest{Requests: reqs})
	} else {
		body, err = json.Marshal(reqs[0])
	}
	return request{body: body, feats: items}, err
}

// setReferences fills every request's expected answer: the served model
// version's Select on ResolveFeatures of the same request.
func setReferences(w workload, model *serve.Model, in *inputs) error {
	memo := map[feature.Vector][]byte{}
	fill := func(reqs []request) error {
		for i := range reqs {
			r := &reqs[i]
			r.want = make([][]byte, len(r.feats))
			for j, f := range r.feats {
				pr := serve.PredictRequest{Model: w.modelName(), Features: f[:]}
				feat, err := serve.ResolveFeatures(&pr, feature.DiscretizationStep)
				if err != nil {
					return err
				}
				m, ok := memo[feat]
				if !ok {
					if m, err = json.Marshal(model.Select(feat).M); err != nil {
						return err
					}
					memo[feat] = m
				}
				r.want[j] = m
			}
		}
		return nil
	}
	if err := fill(in.pool); err != nil {
		return err
	}
	return fill(in.ladder)
}

// target is the running system under test.
type target struct {
	url   string          // base URL the clients drive
	nodes []*serve.Server // every serve node
	local *cluster.Local  // the router tier; nil for a single node
	stop  func()
}

// startTarget brings the workload's node up from the public constructors
// `heteromap serve` uses and returns once it has answered its first
// /healthz; the elapsed time is the set-up time.
func startTarget(w workload) (*target, time.Duration, error) {
	begin := time.Now()
	srv, errCh, err := startNode(w.deep)
	if err != nil {
		return nil, 0, err
	}
	t := &target{nodes: []*serve.Server{srv}, url: "http://" + srv.Addr()}
	t.stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-errCh
	}
	if err := awaitHealthy(t.url); err != nil {
		t.stop()
		return nil, 0, err
	}
	return t, time.Since(begin), nil
}

// startCluster brings up cluster.StartLocal's nodes and router with
// their defaults and returns once the router has answered /healthz.
func startCluster() (*target, error) {
	lc, err := cluster.StartLocal(cluster.LocalOptions{})
	if err != nil {
		return nil, err
	}
	t := &target{local: lc, nodes: lc.Nodes, url: lc.URL()}
	t.stop = func() {
		// Not lc.Stop: a node's graceful shutdown waits up to 5 s for
		// connections the router's transport dialed but never used, which
		// would only lengthen the run.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		lc.Router.Shutdown(ctx)
		for _, n := range lc.Nodes {
			n.Kill()
		}
	}
	if err := awaitHealthy(t.url); err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

// startNode registers the builtin tree (and, for deep, Deep.128 trained
// with the fast configuration as the default) and serves with default
// Options, tracing on.
func startNode(deep bool) (*serve.Server, chan error, error) {
	pair := machine.PrimaryPair()
	reg := serve.NewRegistry(pair)
	if _, err := reg.Register("tree", "builtin decision tree", dtree.New(pair.Limits())); err != nil {
		return nil, nil, err
	}
	if deep {
		net := nn.New(pair.Limits(), nn.Options{Hidden: 128})
		if err := net.Train(train.BuildDatabase(pair, train.FastConfig()).Samples); err != nil {
			return nil, nil, fmt.Errorf("train deep: %w", err)
		}
		if _, err := reg.Register("deep", "Deep.128 trained at startup", net); err != nil {
			return nil, nil, err
		}
		if err := reg.SetDefault("deep"); err != nil {
			return nil, nil, err
		}
	}
	srv := serve.New(serve.Options{Addr: "127.0.0.1:0", Pair: pair, Registry: reg})
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Start() }()
	for srv.Addr() == "127.0.0.1:0" {
		select {
		case err := <-errCh:
			return nil, nil, fmt.Errorf("node failed to start: %w", err)
		default:
			runtime.Gosched() // a timer would round the bind up to its granularity
		}
	}
	return srv, errCh, nil
}

// awaitHealthy polls GET /healthz until it answers 200. Its connection is
// closed by the client first, with a reset, so a set-up leaves no
// TIME_WAIT socket behind: set up hundreds of times a run, those would
// pile up by the thousand and slow every later bind and connect on the
// host, later runs' set-ups included.
func awaitHealthy(base string) error {
	dialer := &net.Dialer{}
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := dialer.DialContext(ctx, network, addr)
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		return c, err
	}}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Timeout: time.Second, Transport: tr}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) // so the connection goes idle, to be reset
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		runtime.Gosched()
	}
	return fmt.Errorf("%s/healthz did not answer within 10s", base)
}

// decisionGap is the mean of cost(served M)/cost(exhaustive best) - 1
// over the quality sample, the paper's decision-quality claim. served
// holds the M the system answered for each sample key.
func decisionGap(quality []qualityKey, served []config.M, workers int) float64 {
	pair := machine.PrimaryPair()
	cands := config.Enumerate(pair.Limits())
	gaps := make([]float64, len(quality))
	var wg sync.WaitGroup
	next := make(chan int, len(quality))
	for i := range quality {
		next <- i
	}
	close(next)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				job := quality[i].job
				best := -1.0
				for _, m := range cands {
					if c := train.Metric(pair, train.Performance, job, m); best < 0 || c < best {
						best = c
					}
				}
				if best > 0 {
					gaps[i] = train.Metric(pair, train.Performance, job, served[i])/best - 1
				}
			}
		}()
	}
	wg.Wait()
	sort.Float64s(gaps) // summation order independent of scheduling
	sum := 0.0
	for _, g := range gaps {
		sum += g
	}
	return sum / float64(len(gaps))
}
