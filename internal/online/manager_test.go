package online

import (
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	"heteromap/internal/config"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/predict/dtree"
	"heteromap/internal/train"
)

// badCells finds discretized cells where always serving the default GPU
// configuration realizes a large gap over the exhaustive best — the
// raw material for provoking drift deterministically.
func badCells(t *testing.T, m *Manager, want int) []feature.Vector {
	t.Helper()
	gpu := config.DefaultGPU(m.limits)
	var cells []feature.Vector
	seen := make(map[string]bool)
	rng := rand.New(rand.NewSource(99))
	for len(cells) < want {
		f := feature.Combine(train.RandomB(rng), train.RandomI(rng))
		if seen[f.Key()] {
			continue
		}
		seen[f.Key()] = true
		job, _, bestCost := m.groundTruth(f)
		if bestCost <= 0 {
			continue
		}
		if m.realize(job, gpu)/bestCost-1 > 0.5 {
			cells = append(cells, f)
		}
	}
	return cells
}

func newTestManager(t *testing.T) *Manager {
	t.Helper()
	return New(Options{
		Pair:           machine.PrimaryPair(),
		Model:          "tree",
		DriftAlpha:     0.5,
		DriftThreshold: 0.25,
		DriftWindow:    4,
		RetrainMin:     16,
		ShadowDir:      t.TempDir(),
	})
}

// feedGPU serves every cell the default GPU configuration and feeds the
// decisions through the hook.
func feedGPU(m *Manager, cells []feature.Vector, predictor string) {
	gpu := config.DefaultGPU(m.limits)
	for _, f := range cells {
		m.Observe(Sample{
			Key: f.Key(), Features: f, M: gpu,
			Model: "tree", Predictor: predictor,
		})
	}
}

func TestCollectorComputesGapsAndDrifts(t *testing.T) {
	m := newTestManager(t)
	cells := badCells(t, m, 20)
	feedGPU(m, cells, "FixedChoice")
	if got := m.Tick(); got != 20 {
		t.Fatalf("tick processed %d, want 20", got)
	}
	if m.Pending() != 0 {
		t.Fatal("samples left pending after tick")
	}
	outs := m.FeedbackWindow().Snapshot()
	if len(outs) != 20 {
		t.Fatalf("window holds %d, want 20", len(outs))
	}
	for _, o := range outs {
		if o.Gap <= 0.5 {
			t.Fatalf("cell %s gap = %v, want > 0.5 (badCells filter)", o.Key, o.Gap)
		}
		if o.ChosenCost < o.BestCost {
			t.Fatalf("chosen cost below exhaustive best on %s", o.Key)
		}
	}
	if !m.Drift().Drifting("tree") {
		t.Fatal("20 large-gap observations did not arm the drift signal")
	}
	// The same traffic served optimally never drifts.
	opt := New(Options{Pair: machine.PrimaryPair(), Model: "tree",
		DriftAlpha: 0.5, DriftThreshold: 0.25, DriftWindow: 4})
	for _, f := range cells {
		_, bestM, _ := opt.groundTruth(f)
		opt.Observe(Sample{Key: f.Key(), Features: f, M: bestM, Model: "tree"})
	}
	opt.Tick()
	if opt.Drift().Drifting("tree") {
		t.Fatal("optimal serving signalled drift")
	}
}

// TestRetrainPromotesThroughBoundPath: drift -> shadow retrain -> the
// candidate beats the deliberately weak live model -> promotion goes
// through the bound callback with a loadable database.
func TestRetrainPromotesThroughBoundPath(t *testing.T) {
	m := newTestManager(t)
	cells := badCells(t, m, 24)

	var promoted []string
	m.BindPromote(func(model, path string) (uint64, error) {
		if _, err := train.LoadDBFile(path); err != nil {
			t.Fatalf("promotion handed an unloadable shadow: %v", err)
		}
		promoted = append(promoted, model+":"+path)
		return 2, nil
	})
	gpu := config.DefaultGPU(m.limits)
	m.BindLive(func(feature.Vector) config.M { return gpu })

	feedGPU(m, cells, "FixedChoice")
	// Tick drains, detects drift, and (window >= RetrainMin) retrains.
	m.Tick()
	rep := m.LastReport()
	if rep == nil || !rep.Promoted {
		t.Fatalf("no promotion after drifted tick: %+v", rep)
	}
	if rep.CandidateGap >= rep.LiveGap {
		t.Fatalf("candidate gap %v did not beat live %v", rep.CandidateGap, rep.LiveGap)
	}
	if rep.Version != 2 || len(promoted) != 1 || !strings.Contains(promoted[0], "tree:") {
		t.Fatalf("promotion bookkeeping wrong: version=%d promoted=%v", rep.Version, promoted)
	}
	if m.Drift().Drifting("tree") {
		t.Fatal("drift signal still armed after promotion")
	}
	if s := m.Snapshot(); s.Promotions != 1 || s.Retrains != 1 {
		t.Fatalf("snapshot promotions=%d retrains=%d, want 1/1", s.Promotions, s.Retrains)
	}
}

// TestCorruptShadowIsRejectedNotPromoted: the MutateShadow seam damages
// the shadow file before promotion; the canary (here: a loader) must
// reject it, the report must show no promotion, and the signal clears
// so the loop doesn't spin.
func TestCorruptShadowIsRejectedNotPromoted(t *testing.T) {
	m := New(Options{
		Pair: machine.PrimaryPair(), Model: "tree",
		DriftAlpha: 0.5, DriftThreshold: 0.25, DriftWindow: 4,
		RetrainMin: 16, ShadowDir: t.TempDir(),
		MutateShadow: func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, b[:len(b)/2], 0o644)
		},
	})
	cells := badCells(t, m, 24)
	m.BindPromote(func(model, path string) (uint64, error) {
		_, err := train.LoadDBFile(path)
		if err == nil {
			t.Fatal("corrupted shadow loaded cleanly; corruption seam inert")
		}
		return 0, err
	})
	gpu := config.DefaultGPU(m.limits)
	m.BindLive(func(feature.Vector) config.M { return gpu })
	feedGPU(m, cells, "FixedChoice")
	m.Tick()
	rep := m.LastReport()
	if rep == nil || rep.Promoted {
		t.Fatalf("corrupt shadow was promoted: %+v", rep)
	}
	if !strings.Contains(rep.Reason, "canary rejected") {
		t.Fatalf("reason = %q, want canary rejection", rep.Reason)
	}
	if s := m.Snapshot(); s.Rejections != 1 || s.Promotions != 0 {
		t.Fatalf("rejections=%d promotions=%d, want 1/0", s.Rejections, s.Promotions)
	}
	if m.Drift().Drifting("tree") {
		t.Fatal("rejected retrain left the signal armed (hot loop)")
	}
}

// TestConcurrentIngestDuringRetrain exercises the locking under the
// race detector: ingest and ticks keep running while a retrain reads a
// window snapshot.
func TestConcurrentIngestDuringRetrain(t *testing.T) {
	m := newTestManager(t)
	cells := badCells(t, m, 8)
	m.BindPromote(func(model, path string) (uint64, error) { return 2, nil })
	gpu := config.DefaultGPU(m.limits)
	m.BindLive(func(feature.Vector) config.M { return gpu })
	feedGPU(m, cells, "FixedChoice")
	m.Tick()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				feedGPU(m, cells[w*2:w*2+2], "FixedChoice")
				if i%10 == 0 {
					m.Tick()
				}
			}
		}(w)
	}
	for i := 0; i < 5; i++ {
		m.RetrainNow("tree")
	}
	wg.Wait()
	m.Tick()
	if m.Snapshot().Processed == 0 {
		t.Fatal("nothing processed under concurrency")
	}
}

func TestAssessRoutesBoundaryNotInterior(t *testing.T) {
	m := New(Options{
		Pair: machine.PrimaryPair(), Model: "tree",
		UncertaintyFloor: 0.3,
	})
	tree := dtree.New(m.limits)

	// Near the layer-4 input-size gate: one grid step flips the
	// accelerator, margin 0.1/0.4 = 0.25 < floor.
	var boundary feature.Vector
	boundary[feature.BVertexDivision] = 1.0
	boundary[feature.BDataAddressing] = 0.8
	boundary[feature.BReadOnly] = 0.5
	boundary[feature.BReadWrite] = 0.5
	boundary[13] = 0.5
	boundary[14] = 0.6
	boundary[15] = 0.2
	boundary[16] = 0.2
	conf, probe := m.Assess(tree, boundary)
	if !probe || conf >= 0.3 {
		t.Fatalf("boundary vector: conf=%v probe=%v, want probe at conf 0.25", conf, probe)
	}

	interior := boundary
	interior[13] = 0.9
	interior[14] = 1.0
	interior[15] = 0.1
	interior[16] = 0.9
	conf, probe = m.Assess(tree, interior)
	if probe || conf != 1.0 {
		t.Fatalf("interior vector: conf=%v probe=%v, want confident 1.0", conf, probe)
	}

	// Floor 0 disables routing entirely.
	off := New(Options{Pair: machine.PrimaryPair()})
	if conf, probe := off.Assess(tree, boundary); probe || conf != 1 {
		t.Fatalf("disabled routing still probed: conf=%v probe=%v", conf, probe)
	}

	// A nil link (fallback label, unknown predictor) gets the neutral
	// margin, still subject to the floor.
	if conf, _ := m.Assess(nil, boundary); conf != neutralConfidence {
		t.Fatalf("nil link conf = %v, want %v", conf, neutralConfidence)
	}
}

// TestResidualsDeflateConfidence: once the window records large gaps
// for a predictor, its conformal residual quantile drags confidence
// down even deep inside a decision region.
func TestResidualsDeflateConfidence(t *testing.T) {
	m := New(Options{
		Pair: machine.PrimaryPair(), Model: "tree",
		UncertaintyFloor: 0.6,
		DriftAlpha:       0.5,
	})
	tree := dtree.New(m.limits)
	cells := badCells(t, m, 12)
	feedGPU(m, cells, tree.Name())
	m.Tick()
	if q := m.residualQuantile(tree.Name()); q <= 0.5 {
		t.Fatalf("residual quantile = %v, want > 0.5 after large-gap feedback", q)
	}
	var interior feature.Vector
	interior[feature.BVertexDivision] = 1.0
	interior[feature.BDataAddressing] = 0.8
	interior[feature.BReadOnly] = 0.5
	interior[feature.BReadWrite] = 0.5
	interior[13] = 0.9
	interior[14] = 1.0
	interior[15] = 0.1
	interior[16] = 0.9
	conf, probe := m.Assess(tree, interior)
	if !probe {
		t.Fatalf("confidently-wrong predictor kept routing privilege: conf=%v", conf)
	}
}

func TestProbeSweepsTheCappedSet(t *testing.T) {
	m := newTestManager(t)
	if len(m.probeSet) != DefaultProbeCap {
		t.Fatalf("probe set = %d candidates, want capped at %d", len(m.probeSet), DefaultProbeCap)
	}
	cells := badCells(t, m, 3)
	for _, f := range cells {
		// The probe must return the exact minimum over its capped set.
		job := synthesizeJob(f)
		wantM, wantCost := m.probeSet[0], m.realize(synthesizeJob(f), m.probeSet[0])
		for _, c := range m.probeSet[1:] {
			if cost := m.realize(job, c); cost < wantCost {
				wantM, wantCost = c, cost
			}
		}
		gotM, gotCost := m.Probe(f)
		if gotM != wantM || gotCost != wantCost {
			t.Fatalf("probe(%s) = %+v/%v, want probe-set best %+v/%v",
				f.Key(), gotM, gotCost, wantM, wantCost)
		}
	}
	if m.Probes() != 3 {
		t.Fatalf("probe counter = %d, want 3", m.Probes())
	}
	// After collection the cell's full-grid truth is cached; a probe of
	// a known cell upgrades to the exact optimum.
	feedGPU(m, cells[:1], "FixedChoice")
	m.Tick()
	_, bestM, bestCost := m.groundTruth(cells[0])
	if gotM, gotCost := m.Probe(cells[0]); gotM != bestM || gotCost != bestCost {
		t.Fatal("cached probe disagrees with full-grid ground truth")
	}
}
