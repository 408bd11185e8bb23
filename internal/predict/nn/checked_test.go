package nn

import (
	"math"
	"testing"

	"heteromap/internal/config"
	"heteromap/internal/feature"
	"heteromap/internal/predict"
)

var _ predict.Checked = (*Network)(nil)

func checkedLimits() config.Limits {
	return config.Limits{
		MaxCores: 61, MaxThreadsPerCore: 4, MaxSIMD: 16,
		MaxGlobalThreads: 8192, MaxLocalThreads: 256,
	}
}

func tinySamples(l config.Limits) []predict.Sample {
	target := config.DefaultMulticore(l).Normalize(l)
	var out []predict.Sample
	for i := 0; i < 8; i++ {
		var f feature.Vector
		for j := range f {
			f[j] = float64(i%3) / 3
		}
		out = append(out, predict.Sample{Features: f, Target: target})
	}
	return out
}

func TestPredictCheckedUntrained(t *testing.T) {
	n := New(checkedLimits(), Options{Hidden: 8})
	if _, err := n.PredictChecked(feature.Vector{}); err == nil {
		t.Fatal("untrained network predicted without error")
	}
}

func TestPredictCheckedHealthy(t *testing.T) {
	l := checkedLimits()
	n := New(l, Options{Hidden: 8, Epochs: 3})
	if err := n.Train(tinySamples(l)); err != nil {
		t.Fatal(err)
	}
	m, err := n.PredictChecked(feature.Vector{})
	if err != nil {
		t.Fatalf("healthy network rejected: %v", err)
	}
	if verr := m.Validate(l); verr != nil {
		t.Fatalf("checked prediction invalid: %v", verr)
	}
}

func TestPredictCheckedDetectsNaNWeights(t *testing.T) {
	l := checkedLimits()
	n := New(l, Options{Hidden: 8, Epochs: 3})
	if err := n.Train(tinySamples(l)); err != nil {
		t.Fatal(err)
	}
	// Poison one output-layer weight, simulating a diverged training run.
	last := n.layers[len(n.layers)-1]
	last.w[0] = math.NaN()
	last.transpose(0, last.out)
	if _, err := n.PredictChecked(feature.Vector{}); err == nil {
		t.Fatal("NaN-poisoned network passed PredictChecked")
	}
	// Plain Predict must still return a deployable (sanitized) M — the
	// ceiling rule — even though the checked path rejects it.
	m := n.Predict(feature.Vector{})
	if err := m.Validate(l); err != nil {
		t.Fatalf("Predict leaked non-finite values: %v", err)
	}
}
