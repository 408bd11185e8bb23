package nn

import (
	"sync"
	"testing"

	"heteromap/internal/config"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/predict"
)

// A trained network must be shareable across goroutines: the serving
// layer answers misses, and /v1/explain derives NN margins, on many
// request goroutines at once. Inference is pure (no layer state is
// written), which this test proves under -race, and every goroutine must
// see the same deterministic prediction and margin.
func TestPredictConcurrentlySafe(t *testing.T) {
	limits := machine.PrimaryPair().Limits()
	net := New(limits, Options{Hidden: 16, Epochs: 4, Seed: 3})

	samples := make([]predict.Sample, 24)
	for i := range samples {
		var f feature.Vector
		for j := range f {
			f[j] = float64((i+j)%11) / 10
		}
		samples[i] = predict.Sample{
			Features: f,
			Target:   config.DefaultMulticore(limits).Normalize(limits),
		}
	}
	if err := net.Train(samples); err != nil {
		t.Fatal(err)
	}

	queries := make([]feature.Vector, 8)
	for i := range queries {
		for j := range queries[i] {
			queries[i][j] = float64((i*3+j)%11) / 10
		}
	}
	want := make([]config.M, len(queries))
	margins := make([]float64, len(queries))
	for i, q := range queries {
		want[i] = net.Predict(q)
		margins[i] = net.M1Margin(q)
	}

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				q := (g + iter) % len(queries)
				if got := net.Predict(queries[q]); got != want[q] {
					t.Errorf("goroutine %d: Predict diverged: %v != %v", g, got, want[q])
					return
				}
				m, err := net.PredictChecked(queries[q])
				if err != nil {
					t.Errorf("goroutine %d: PredictChecked: %v", g, err)
					return
				}
				if m != want[q] {
					t.Errorf("goroutine %d: PredictChecked diverged", g)
					return
				}
				if got := net.M1Margin(queries[q]); got != margins[q] {
					t.Errorf("goroutine %d: M1Margin diverged: %v != %v", g, got, margins[q])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
