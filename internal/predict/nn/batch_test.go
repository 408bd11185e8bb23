package nn

import (
	"math"
	"math/rand"
	"testing"

	"heteromap/internal/config"
	"heteromap/internal/feature"
)

// batchNet trains a small network on varied samples so its per-row
// outputs differ (a constant network would hide row-mixing bugs).
func batchNet(t *testing.T, hidden int) (*Network, config.Limits) {
	t.Helper()
	l := checkedLimits()
	n := New(l, Options{Hidden: hidden, Epochs: 5, Seed: 3})
	rng := rand.New(rand.NewSource(11))
	samples := tinySamples(l)
	for i := range samples {
		for j := range samples[i].Features {
			samples[i].Features[j] = rng.Float64()
		}
	}
	if err := n.Train(samples); err != nil {
		t.Fatal(err)
	}
	return n, l
}

func batchFeats(n int, seed int64) []feature.Vector {
	rng := rand.New(rand.NewSource(seed))
	feats := make([]feature.Vector, n)
	for i := range feats {
		for j := range feats[i] {
			feats[i][j] = rng.Float64()
		}
	}
	return feats
}

// The batch contract, bit for bit: every row of PredictBatchChecked is
// exactly what PredictChecked returns for that row alone, for every
// batch size — including sizes around the micro-batch limits — and
// regardless of which rows share the pass. This is the equivalence the
// serve batcher's batch-native dispatch relies on.
func TestPredictBatchMatchesSingle(t *testing.T) {
	forEachKernelPath(t, testPredictBatchMatchesSingle)
}

func testPredictBatchMatchesSingle(t *testing.T) {
	n, l := batchNet(t, 16)
	for _, rows := range []int{1, 2, 3, 8, 17, 64} {
		feats := batchFeats(rows, int64(rows))
		dst := make([]config.M, rows)
		if err := n.PredictBatchChecked(feats, dst); err != nil {
			t.Fatalf("rows=%d: %v", rows, err)
		}
		for r := range feats {
			single, err := n.PredictChecked(feats[r])
			if err != nil {
				t.Fatalf("rows=%d row=%d: %v", rows, r, err)
			}
			if dst[r] != single {
				t.Fatalf("rows=%d row=%d: batch %+v != single %+v", rows, r, dst[r], single)
			}
			if err := dst[r].Validate(l); err != nil {
				t.Fatalf("rows=%d row=%d: invalid batch output: %v", rows, r, err)
			}
		}
		// Row order must not leak between rows: the reversed batch
		// answers each row identically.
		rev := make([]feature.Vector, rows)
		for i := range feats {
			rev[rows-1-i] = feats[i]
		}
		rdst := make([]config.M, rows)
		if err := n.PredictBatchChecked(rev, rdst); err != nil {
			t.Fatalf("rows=%d reversed: %v", rows, err)
		}
		for r := range feats {
			if rdst[rows-1-r] != dst[r] {
				t.Fatalf("rows=%d row=%d: answer changed with batch order", rows, r)
			}
		}
	}
}

func TestPredictBatchRejectsUntrainedShortDstAndEmpty(t *testing.T) {
	l := checkedLimits()
	untrained := New(l, Options{Hidden: 8})
	feats := batchFeats(4, 1)
	if err := untrained.PredictBatchChecked(feats, make([]config.M, 4)); err == nil {
		t.Fatal("untrained network answered a batch")
	}
	n, _ := batchNet(t, 8)
	if err := n.PredictBatchChecked(feats, make([]config.M, 3)); err == nil {
		t.Fatal("short dst accepted")
	}
	if err := n.PredictBatchChecked(nil, nil); err != nil {
		t.Fatalf("empty batch errored: %v", err)
	}
}

// A poisoned network fails the whole batch, mirroring PredictChecked:
// the batcher falls back to per-item dispatch (and its fallback chain)
// rather than serving one bad row.
func TestPredictBatchDetectsNaNWeights(t *testing.T) {
	n, _ := batchNet(t, 8)
	last := n.layers[len(n.layers)-1]
	last.w[0] = math.NaN()
	last.transpose(0, last.out)
	feats := batchFeats(4, 2)
	if err := n.PredictBatchChecked(feats, make([]config.M, 4)); err == nil {
		t.Fatal("NaN-poisoned network answered a batch")
	}
}

// Batched inference reuses pooled scratch: after warmup a full pass
// stays within a small constant allocation budget regardless of batch
// size (the pool may occasionally miss under GC, hence the slack — but
// per-row allocation would blow straight through it).
func TestPredictBatchBoundedAllocs(t *testing.T) {
	n, _ := batchNet(t, 32)
	feats := batchFeats(16, 5)
	dst := make([]config.M, len(feats))
	if err := n.PredictBatchChecked(feats, dst); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := n.PredictBatchChecked(feats, dst); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Fatalf("batched inference averaged %.1f allocs per 16-row pass, want <= 2", avg)
	}
}
