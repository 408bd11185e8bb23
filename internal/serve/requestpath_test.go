package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/predict/dtree"
	"heteromap/internal/predict/nn"
	"heteromap/internal/train"
)

// pathHarness drives Server.Handler in process, with tracing on, through
// the three requests the request-path benchmark and allocation budget
// price: a warm single hit, a warm 32-item batch, and a 32-item Deep.128
// batch whose items alternate warm keys and keys never seen. Bodies are
// encoded up front, and the writer, reader and requests are reused, so a
// call allocates only what the handler does.
type pathHarness struct {
	h      http.Handler
	w      pathWriter
	rd     pathBody
	single *http.Request
	batch  *http.Request

	hit   []byte   // one warm tree key
	warm  []byte   // 32 warm tree keys
	fresh [][]byte // half-fresh Deep.128 batches, each sent once per cycle
	next  int
}

// pathFreshBodies is the half-fresh cycle's length. Its 8,192 fresh keys
// are twice the default cache's 4,096 entries, so a key is evicted long
// before the cycle comes back to it.
const pathFreshBodies = 512

// pathWriter keeps the status and body of the last answer.
type pathWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *pathWriter) Header() http.Header { return w.header }

func (w *pathWriter) WriteHeader(status int) { w.status = status }

func (w *pathWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = append(w.body, b...)
	return len(b), nil
}

// pathBody is a request body that can be rewound to new bytes.
type pathBody struct{ bytes.Reader }

func (*pathBody) Close() error { return nil }

func newPathHarness(tb testing.TB) *pathHarness {
	tb.Helper()
	pair := machine.PrimaryPair()
	net := nn.New(pair.Limits(), nn.Options{Hidden: 128, Epochs: 1})
	if err := net.Train(train.BuildDatabase(pair, train.Config{Samples: 64, Seed: 7}).Samples); err != nil {
		tb.Fatal(err)
	}
	s := New(Options{Pair: pair})
	if _, err := s.Registry().Register("tree", "builtin decision tree", dtree.New(pair.Limits())); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Registry().Register("deep", "Deep.128", net); err != nil {
		tb.Fatal(err)
	}
	p := &pathHarness{
		h:      s.Handler(),
		w:      pathWriter{header: http.Header{}},
		single: httptest.NewRequest(http.MethodPost, "/v1/predict", nil),
		batch:  httptest.NewRequest(http.MethodPost, "/v1/predict/batch", nil),
	}

	rng := rand.New(rand.NewSource(1))
	seen := map[feature.Vector]bool{}
	keys := func(n int) []feature.Vector {
		out := make([]feature.Vector, 0, n)
		for len(out) < n {
			var f feature.Vector
			for i := range f {
				f[i] = float64(rng.Intn(11)) * feature.DiscretizationStep
			}
			if !seen[f] {
				seen[f] = true
				out = append(out, f)
			}
		}
		return out
	}
	encode := func(model string, items []feature.Vector) []byte {
		var b BatchRequest
		for i := range items {
			b.Requests = append(b.Requests, PredictRequest{Model: model, Features: items[i][:]})
		}
		body, err := json.Marshal(b)
		if err != nil {
			tb.Fatal(err)
		}
		return body
	}

	treeHot, deepHot := keys(32), keys(64)
	var err error
	if p.hit, err = json.Marshal(PredictRequest{Model: "tree", Features: treeHot[0][:]}); err != nil {
		tb.Fatal(err)
	}
	p.warm = encode("tree", treeHot)
	fresh := keys(pathFreshBodies * 16)
	for i := 0; i < pathFreshBodies; i++ {
		items := make([]feature.Vector, 0, 32)
		for _, f := range fresh[i*16 : (i+1)*16] {
			items = append(items, deepHot[rng.Intn(len(deepHot))], f)
		}
		p.fresh = append(p.fresh, encode("deep", items))
	}

	// Warm every hot key, and check that the network answers the deep
	// items rather than a fallback.
	p.serve(p.batch, p.warm)
	p.serve(p.batch, encode("deep", deepHot))
	var resp BatchResponse
	if err := json.Unmarshal(p.w.body, &resp); err != nil || p.w.status != http.StatusOK {
		tb.Fatalf("warming deep keys: status %d, %v", p.w.status, err)
	}
	for _, r := range resp.Responses {
		if r.Error != "" || r.PredictorUsed != net.Name() {
			tb.Fatalf("deep item answered by %q, error %q", r.PredictorUsed, r.Error)
		}
	}
	return p
}

// serve sends body to req's endpoint and checks that it answered 200.
func (p *pathHarness) serve(req *http.Request, body []byte) {
	clear(p.w.header)
	p.w.status, p.w.body = 0, p.w.body[:0]
	p.rd.Reset(body)
	req.Body = &p.rd
	p.h.ServeHTTP(&p.w, req)
	if p.w.status != http.StatusOK {
		panic("request path answered " + http.StatusText(p.w.status) + ": " + string(p.w.body))
	}
}

// halfFresh sends the next half-fresh Deep.128 batch of the cycle.
func (p *pathHarness) halfFresh() {
	p.serve(p.batch, p.fresh[p.next])
	p.next = (p.next + 1) % len(p.fresh)
}

// pathRequest is one of the harness's requests and how to send it.
type pathRequest struct {
	name string
	send func()
}

func (p *pathHarness) requests() []pathRequest {
	return []pathRequest{
		{"hit", func() { p.serve(p.single, p.hit) }},
		{"warm-batch", func() { p.serve(p.batch, p.warm) }},
		{"half-fresh-deep128", p.halfFresh},
	}
}

// BenchmarkRequestPath prices the node's request path end to end in
// process: decode, resolve, cache, the Deep.128 pass on a miss, tracing,
// provenance and encode, without the loopback socket.
func BenchmarkRequestPath(b *testing.B) {
	p := newPathHarness(b)
	for _, r := range p.requests() {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.send()
			}
		})
	}
}

// TestRequestPathAllocBudget pins what each of the harness's requests
// allocates through Server.Handler with tracing on, at the counts the
// request path measured when they were set; a change that adds an
// allocation per item, or per request, fails it. The race detector
// changes the counts, and so may a new Go release: measure them again
// then.
func TestRequestPathAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts differ under the race detector")
	}
	budget := map[string]float64{
		"hit":                30,
		"warm-batch":         30,
		"half-fresh-deep128": 66,
	}
	p := newPathHarness(t)
	for _, r := range p.requests() {
		if n := testing.AllocsPerRun(100, r.send); n > budget[r.name] {
			t.Errorf("%s allocated %.0f times per request, budget %.0f", r.name, n, budget[r.name])
		}
	}
}
