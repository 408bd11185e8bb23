package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"heteromap/internal/config"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/online"
	"heteromap/internal/train"
)

// shiftedCells deterministically finds discretized cells where the weak
// live model (always the default GPU configuration) realizes a large
// cost gap — a stand-in for the workload shifting to graphs the trained
// model never saw (the paper's social-network vs road-network split).
func shiftedCells(t *testing.T, want int) []feature.Vector {
	t.Helper()
	pair := machine.PrimaryPair()
	cands := config.Enumerate(pair.Limits())
	gpu := config.DefaultGPU(pair.Limits())
	rng := rand.New(rand.NewSource(99))
	seen := make(map[string]bool)
	var cells []feature.Vector
	for len(cells) < want {
		f := feature.Combine(train.RandomB(rng), train.RandomI(rng))
		if seen[f.Key()] {
			continue
		}
		seen[f.Key()] = true
		job := cellJob(f)
		best := math.Inf(1)
		for _, c := range cands {
			if v := train.Metric(pair, train.Performance, job, c); v < best {
				best = v
			}
		}
		if best > 0 && train.Metric(pair, train.Performance, job, gpu)/best-1 > 0.5 {
			cells = append(cells, f)
		}
	}
	return cells
}

// cellJob recreates the collector's deterministic per-cell job.
func cellJob(f feature.Vector) machine.Job {
	rng := rand.New(rand.NewSource(int64(f.ShardHash())))
	combo := train.Synthesize(f.B(), f.I(), rng)
	return machine.Job{Work: combo.Work, FootprintBytes: combo.Footprint}
}

// cellGap realizes one configuration on a cell and returns its gap over
// the full-grid best.
func cellGap(t *testing.T, f feature.Vector, m config.M) float64 {
	t.Helper()
	pair := machine.PrimaryPair()
	job := cellJob(f)
	best := math.Inf(1)
	for _, c := range config.Enumerate(pair.Limits()) {
		if v := train.Metric(pair, train.Performance, job, c); v < best {
			best = v
		}
	}
	if best <= 0 {
		t.Fatal("cell with non-positive best cost")
	}
	gap := train.Metric(pair, train.Performance, job, m)/best - 1
	if gap < 0 {
		gap = 0
	}
	return gap
}

// newOnlineLoopServer wires a server whose default "tree" model is
// deliberately weak (always default GPU) around an online manager, with
// the cmd-path tolerant canary (validity and latency gates).
func newOnlineLoopServer(t *testing.T, floor float64, mutate func(string) error) (*Server, *online.Manager) {
	t.Helper()
	pair := machine.PrimaryPair()
	reg := NewRegistry(pair)
	weak, err := reg.Register("tree", "v1-weak", fixedPred{m: config.DefaultGPU(pair.Limits())})
	if err != nil {
		t.Fatal(err)
	}
	cases, err := RecordGoldenSet(weak, DefaultGoldenRequests(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	mgr := online.New(online.Options{
		Pair:             pair,
		Model:            "tree",
		DriftAlpha:       0.5,
		DriftThreshold:   0.25,
		DriftWindow:      4,
		RetrainMin:       16,
		ShadowDir:        t.TempDir(),
		UncertaintyFloor: floor,
		MutateShadow:     mutate,
	})
	srv := New(Options{
		Registry: reg,
		Pair:     pair,
		Canary:   &CanaryConfig{Cases: cases, MaxLatency: time.Second, MaxMismatches: len(cases)},
		Online:   mgr,
	})
	return srv, mgr
}

// postPredict sends one raw-feature prediction and decodes the answer.
func postPredict(t *testing.T, url string, f feature.Vector) (PredictResponse, string) {
	t.Helper()
	body, _ := json.Marshal(PredictRequest{Features: f[:]})
	resp, err := http.Post(url+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	return pr, resp.Header.Get("X-Heteromap-Trace")
}

// TestClosedLoopDriftRetrainPromote is the deterministic end-to-end
// acceptance path: a seeded workload shift is served badly by the weak
// live model -> the collector realizes the gaps and arms the drift
// signal -> a shadow model retrains from the feedback window, beats the
// live model on holdout replay, and promotes through the canary-gated
// reload path (registry version advances) -> the same shifted cells are
// then served with a strictly smaller per-cell cost gap.
func TestClosedLoopDriftRetrainPromote(t *testing.T) {
	srv, mgr := newOnlineLoopServer(t, 0, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cells := shiftedCells(t, 24)
	preGap := make(map[string]float64, len(cells))
	for _, f := range cells {
		pr, _ := postPredict(t, ts.URL, f)
		if pr.PredictorUsed != "FixedTest" {
			t.Fatalf("pre-promotion predictor = %s, want the weak FixedTest", pr.PredictorUsed)
		}
		preGap[f.Key()] = cellGap(t, f, pr.M)
	}

	versionBefore := srv.Registry().DefaultVersion()
	if n := mgr.Tick(); n != len(cells) {
		t.Fatalf("tick processed %d, want %d", n, len(cells))
	}
	if mgr.Drift().Signals("tree") == 0 {
		t.Fatal("shifted workload did not raise the drift signal")
	}
	rep := mgr.LastReport()
	if rep == nil || !rep.Promoted {
		t.Fatalf("drift did not end in a promotion: %+v", rep)
	}
	if rep.CandidateGap >= rep.LiveGap {
		t.Fatalf("shadow candidate gap %v did not beat live %v", rep.CandidateGap, rep.LiveGap)
	}
	versionAfter := srv.Registry().DefaultVersion()
	if versionAfter <= versionBefore {
		t.Fatalf("registry version %d -> %d: promotion did not go through the registry",
			versionBefore, versionAfter)
	}
	if runs := srv.Metrics().CanaryRuns.Load(); runs != 1 {
		t.Fatalf("%d canary runs counted after one promotion, want 1", runs)
	}

	// The same shifted distribution, served by the promoted model, must
	// close the gap on every cell — strictly, since the pre-promotion
	// gaps were all large and the shadow trained on exactly these cells.
	for _, f := range cells {
		pr, _ := postPredict(t, ts.URL, f)
		if pr.Cached {
			t.Fatalf("cell %s served from a stale cache across the promotion", f.Key())
		}
		post := cellGap(t, f, pr.M)
		if pre := preGap[f.Key()]; post >= pre {
			t.Fatalf("cell %s: post-promotion gap %v not strictly below pre-promotion %v",
				f.Key(), post, pre)
		}
	}
}

// TestCorruptShadowQuarantinedNeverServes: the corruption seam damages
// the shadow database between write and promotion. The canary-gated
// reload must quarantine it, the registry version must not advance, and
// the weak model must keep serving unchanged.
func TestCorruptShadowQuarantinedNeverServes(t *testing.T) {
	truncate := func(path string) error {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(path, b[:len(b)/2], 0o644)
	}
	srv, mgr := newOnlineLoopServer(t, 0, truncate)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cells := shiftedCells(t, 24)
	for _, f := range cells {
		postPredict(t, ts.URL, f)
	}
	versionBefore := srv.Registry().DefaultVersion()
	mgr.Tick()
	rep := mgr.LastReport()
	if rep == nil || rep.Promoted {
		t.Fatalf("corrupted shadow was promoted: %+v", rep)
	}
	if got := srv.Registry().DefaultVersion(); got != versionBefore {
		t.Fatalf("registry version moved %d -> %d on a corrupt shadow", versionBefore, got)
	}
	if q := srv.Registry().Quarantined(); len(q) == 0 {
		t.Fatal("corrupt shadow not quarantined")
	}
	if s := mgr.Snapshot(); s.Rejections != 1 || s.Promotions != 0 {
		t.Fatalf("rejections=%d promotions=%d, want 1/0", s.Rejections, s.Promotions)
	}
	// The weak model still answers, unchanged.
	pr, _ := postPredict(t, ts.URL, cells[0])
	if pr.PredictorUsed == "DB Lookup" {
		t.Fatal("quarantined shadow is serving")
	}
	if pr.Version != versionBefore {
		t.Fatalf("serving version %d, want unchanged %d", pr.Version, versionBefore)
	}
}

// TestUncertaintyRoutingProbesAndExplains: with a floor above the
// neutral confidence, every fresh prediction from the opaque weak
// predictor routes to the exhaustive probe; the probed answer is
// cached, written back into the feedback stream, and visible in
// /v1/explain provenance.
func TestUncertaintyRoutingProbesAndExplains(t *testing.T) {
	srv, mgr := newOnlineLoopServer(t, 0.9, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cells := shiftedCells(t, 3)
	f := cells[0]
	pr, traceID := postPredict(t, ts.URL, f)
	if pr.PredictorUsed != online.ProbePredictor {
		t.Fatalf("predictor = %s, want %s (neutral confidence 0.5 < floor 0.9)",
			pr.PredictorUsed, online.ProbePredictor)
	}
	if gpu := config.DefaultGPU(machine.PrimaryPair().Limits()); pr.M == gpu {
		t.Fatal("probe returned the weak model's answer on a cell where GPU is far from optimal")
	}
	if len(pr.Resilience) == 0 {
		t.Fatal("probe left no resilience event on the response")
	}

	// The probed answer is cached: a repeat is a cache hit with the same
	// configuration and the probe label.
	again, _ := postPredict(t, ts.URL, f)
	if !again.Cached || again.PredictorUsed != online.ProbePredictor || again.M != pr.M {
		t.Fatalf("repeat not served from the probed cache entry: %+v", again)
	}

	// The write-back reaches the feedback window with the probe label.
	// Match on the server's discretized key (float rounding can make it
	// differ textually from f.Key()).
	mgr.Tick()
	found := false
	for _, o := range mgr.FeedbackWindow().Snapshot() {
		if o.Key == pr.Key && o.Predictor == online.ProbePredictor && o.Probed {
			found = true
			if o.Gap > 0.5 {
				t.Fatalf("probed answer still has gap %v on its own cell", o.Gap)
			}
		}
	}
	if !found {
		t.Fatal("probe result never reached the feedback stream")
	}

	// Provenance names the probe as the deciding predictor.
	if traceID == "" {
		t.Fatal("no trace id on the probed response")
	}
	resp, err := http.Get(ts.URL + "/v1/explain/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status %d: %s", resp.StatusCode, buf.String())
	}
	if want := fmt.Sprintf("%q", online.ProbePredictor); !bytes.Contains(buf.Bytes(), []byte(want)) {
		t.Fatalf("explain output does not name the probe: %s", buf.String())
	}
}

// TestOnlineEndpointAndMetrics: /v1/online reports the loop state, the
// online exposition rides /metrics, and both 409 cleanly when online
// learning is off.
func TestOnlineEndpointAndMetrics(t *testing.T) {
	srv, mgr := newOnlineLoopServer(t, 0, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cells := shiftedCells(t, 4)
	for _, f := range cells {
		postPredict(t, ts.URL, f)
	}
	mgr.Tick()

	resp, err := http.Get(ts.URL + "/v1/online")
	if err != nil {
		t.Fatal(err)
	}
	var snap online.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Ingested != 4 || snap.Processed != 4 || snap.WindowSize != 4 {
		t.Fatalf("snapshot = %+v, want 4 ingested/processed/window", snap)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"heteromap_online_ingested_total 4",
		"heteromap_drift_ewma{model=\"tree\"}",
		"heteromap_shadow_retrains_total",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// Without a manager the endpoint 409s like /v1/chaos does.
	plain := New(Options{})
	pts := httptest.NewServer(plain.Handler())
	defer pts.Close()
	oresp, err := http.Get(pts.URL + "/v1/online")
	if err != nil {
		t.Fatal(err)
	}
	oresp.Body.Close()
	if oresp.StatusCode != http.StatusConflict {
		t.Fatalf("/v1/online without online learning = %d, want 409", oresp.StatusCode)
	}
}

// Shutdown closes the online manager after the HTTP drain: a manager
// reopened on its durable directory restores the final snapshot and
// replays nothing from the WAL.
func TestShutdownClosesOnlineManager(t *testing.T) {
	pair := machine.PrimaryPair()
	opts := online.Options{Pair: pair, Model: "live", DurableDir: t.TempDir()}
	mgr := online.New(opts)
	s := missServer(t, Options{Pair: pair, Online: mgr}, fixedPred{m: config.DefaultGPU(pair.Limits())})
	for i := 0; i < 4; i++ {
		if r, status := predictFeat(context.Background(), s, "live", testFeature(i)); status != 0 {
			t.Fatalf("status %d: %s", status, r.Error)
		}
	}
	if n := mgr.Tick(); n != 4 {
		t.Fatalf("tick processed %d samples, want 4", n)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	reopened := online.New(opts)
	defer reopened.Close()
	if ds := reopened.DurableStats(); !ds.SnapshotRestored || ds.Replayed != 0 {
		t.Fatalf("reopened manager: snapshot_restored=%v wal_replayed=%d, want true and 0",
			ds.SnapshotRestored, ds.Replayed)
	}
}
