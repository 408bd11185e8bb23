package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"heteromap/internal/config"
	"heteromap/internal/feature"
	"heteromap/internal/predict"
)

func limits() config.Limits {
	return config.Limits{
		MaxCores: 61, MaxThreadsPerCore: 4, MaxSIMD: 16,
		MaxGlobalThreads: 8192, MaxLocalThreads: 256,
	}
}

// syntheticSamples builds a learnable mapping: the target accelerator
// flips on B1 > 0.5 and the normalized core count follows I1.
func syntheticSamples(n int, seed int64) []predict.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]predict.Sample, n)
	for i := range out {
		var f feature.Vector
		for j := range f {
			f[j] = float64(rng.Intn(11)) / 10
		}
		var target [config.NumVariables]float64
		if f[0] > 0.5 {
			target[0] = 0                // GPU
			target[18] = f[feature.NumB] // global threads follow I1
			target[19] = 0.5
		} else {
			target[0] = 1 // multicore
			target[1] = f[feature.NumB]
			target[2] = 1
		}
		out[i] = predict.Sample{Features: f, Target: target}
	}
	return out
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Hidden != 128 || o.Epochs != 90 || o.BatchSize != 32 {
		t.Fatalf("defaults %+v", o)
	}
	small := Options{Hidden: 16}.withDefaults()
	if small.Epochs != 60 {
		t.Fatalf("small net epochs %d", small.Epochs)
	}
}

func TestNameAndParamCount(t *testing.T) {
	n := New(limits(), Options{Hidden: 32})
	if n.Name() != "Deep.32" {
		t.Fatalf("name %q", n.Name())
	}
	if n.Hidden() != 32 {
		t.Fatal("hidden accessor")
	}
	// 17*32+32 + 32*32+32 + 32*20+20 parameters.
	want := 17*32 + 32 + 32*32 + 32 + 32*20 + 20
	if got := n.ParamCount(); got != want {
		t.Fatalf("params %d want %d", got, want)
	}
}

func TestTrainReducesLoss(t *testing.T) {
	samples := syntheticSamples(400, 1)
	n := New(limits(), Options{Hidden: 32, Epochs: 30, Seed: 2})
	before := n.Loss(samples)
	if err := n.Train(samples); err != nil {
		t.Fatal(err)
	}
	after := n.Loss(samples)
	if after >= before/2 {
		t.Fatalf("training barely reduced loss: %v -> %v", before, after)
	}
}

func TestTrainEmptyErrors(t *testing.T) {
	if err := New(limits(), Options{}).Train(nil); err == nil {
		t.Fatal("expected error on empty training set")
	}
}

func TestLearnsAcceleratorRule(t *testing.T) {
	samples := syntheticSamples(600, 3)
	n := New(limits(), Options{Hidden: 32, Epochs: 40, Seed: 4})
	if err := n.Train(samples); err != nil {
		t.Fatal(err)
	}
	correct := 0
	holdout := syntheticSamples(200, 99)
	for _, s := range holdout {
		m := n.Predict(s.Features)
		wantGPU := s.Features[0] > 0.5
		if (m.Accelerator == config.GPU) == wantGPU {
			correct++
		}
	}
	if frac := float64(correct) / 200; frac < 0.9 {
		t.Fatalf("accelerator rule accuracy %.2f want >= 0.9", frac)
	}
}

func TestDeterministicTraining(t *testing.T) {
	samples := syntheticSamples(100, 5)
	a := New(limits(), Options{Hidden: 16, Epochs: 10, Seed: 7})
	b := New(limits(), Options{Hidden: 16, Epochs: 10, Seed: 7})
	if err := a.Train(samples); err != nil {
		t.Fatal(err)
	}
	if err := b.Train(samples); err != nil {
		t.Fatal(err)
	}
	if err := sameParams(a, b); err != nil {
		t.Fatalf("same seed, different weights: %v", err)
	}
}

// Training allocates its workspace once per call; no epoch, batch or
// sample allocates after that.
func TestTrainAllocsIndependentOfEpochs(t *testing.T) {
	samples := syntheticSamples(300, 21)
	allocs := func(epochs int) float64 {
		n := New(limits(), Options{Hidden: 16, Epochs: epochs, Seed: 3})
		return testing.AllocsPerRun(3, func() {
			if err := n.Train(samples); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, eight := allocs(1), allocs(8); one != eight {
		t.Fatalf("Train allocated %v times at 1 epoch and %v at 8", one, eight)
	}
}

func TestPredictWithinLimits(t *testing.T) {
	l := limits()
	n := New(l, Options{Hidden: 16, Epochs: 5, Seed: 1})
	if err := n.Train(syntheticSamples(50, 2)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		var f feature.Vector
		for j := range f {
			f[j] = rng.Float64()
		}
		m := n.Predict(f)
		if m.Clamp(l) != m {
			t.Fatalf("prediction out of limits: %+v", m)
		}
		if m.Snapped(l) != m {
			t.Fatalf("prediction not snapped to grid: %+v", m)
		}
	}
}

// TestBackpropMatchesNumericalGradient validates the batched gradient
// step (phases 1–3 of Train, without the Adam step) against central
// finite differences of the batch's summed half squared error, on a tiny
// network and a batch of three samples in which some hidden unit is dead
// for one sample and live for another.
func TestBackpropMatchesNumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := &Network{
		opts:   Options{Hidden: 4}.withDefaults(),
		limits: limits(),
		layers: []*dense{
			newDense(3, 4, rng),
			newDense(4, 4, rng),
			newDense(4, 2, rng),
		},
	}
	batch := []predict.Sample{
		{Features: feature.Vector{0.3, -0.2, 0.8}, Target: [config.NumVariables]float64{0.9, 0.1}},
		{Features: feature.Vector{-0.7, 0.6, 0.1}, Target: [config.NumVariables]float64{0.2, 0.6}},
		{Features: feature.Vector{0.5, 0.9, -0.4}, Target: [config.NumVariables]float64{0.4, 0.8}},
	}

	loss := func() float64 {
		sum := 0.0
		for _, s := range batch {
			var out [2]float64
			n.forwardInto(s.Features[:], out[:])
			for j, o := range out {
				d := o - s.Target[j]
				sum += d * d / 2
			}
		}
		return sum
	}

	// Phase 1 over a pair and a lone row, then the gradient sums of
	// phase 2 without its Adam step.
	tr := newTrainer(n, batch, 1)
	tr.batch = []int{0, 1, 2}
	tr.rows(0, 0)
	tr.rows(1, 0)
	for li, l := range n.layers {
		l.gradRows(tr.acts[li], tr.deltas[li], len(tr.batch), 0, l.out, &tr.lives[0])
	}

	mixed := false
	for li, l := range n.layers[:2] {
		act := tr.acts[li+1]
		for u := 0; u < l.out; u++ {
			dead, live := false, false
			for r := range batch {
				dead = dead || act[r*l.out+u] == 0
				live = live || act[r*l.out+u] > 0
			}
			mixed = mixed || dead && live
		}
	}
	if !mixed {
		t.Fatal("no hidden unit is dead for one sample and live for another")
	}

	const eps = 1e-6
	check := func(li int, what string, p, grad []float64) {
		for i := range p {
			orig := p[i]
			p[i] = orig + eps
			n.layers[li].transpose(0, n.layers[li].out)
			up := loss()
			p[i] = orig - eps
			n.layers[li].transpose(0, n.layers[li].out)
			down := loss()
			p[i] = orig
			n.layers[li].transpose(0, n.layers[li].out)
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-grad[i]) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d %s %d: numeric %v analytic %v", li, what, i, numeric, grad[i])
			}
		}
	}
	for li, l := range n.layers {
		check(li, "weight", l.w, l.gw)
		check(li, "bias", l.b, l.gb)
	}
}

func TestSigmoid(t *testing.T) {
	if s := sigmoid(0); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("sigmoid(0)=%v", s)
	}
	if s := sigmoid(40); s < 0.999 {
		t.Fatalf("sigmoid(40)=%v", s)
	}
	if s := sigmoid(-40); s > 0.001 {
		t.Fatalf("sigmoid(-40)=%v", s)
	}
}

func TestWiderNetworksFitBetter(t *testing.T) {
	samples := syntheticSamples(500, 17)
	lossFor := func(hidden int) float64 {
		n := New(limits(), Options{Hidden: hidden, Epochs: 30, Seed: 3})
		if err := n.Train(samples); err != nil {
			t.Fatal(err)
		}
		return n.Loss(samples)
	}
	l16, l128 := lossFor(16), lossFor(128)
	if l128 >= l16 {
		t.Fatalf("Deep.128 training loss %v not below Deep.16 %v", l128, l16)
	}
}

// Train returns only after its helpers have exited: at GOMAXPROCS 4 no
// goroutine it started is left, whether it chose its worker count or
// was given four. At GOMAXPROCS 1 it starts none.
func TestTrainLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if w := trainWorkers(); w != 1 {
		t.Fatalf("trainWorkers at GOMAXPROCS 1 = %d, want 1", w)
	}
	samples := syntheticSamples(200, 9)
	if got := len(newTrainer(New(limits(), Options{Hidden: 16}), samples, trainWorkers()).lives); got != 1 {
		t.Fatalf("a trainer at GOMAXPROCS 1 has %d workers, want 1", got)
	}
	runtime.GOMAXPROCS(4)
	before := runtime.NumGoroutine()
	n := New(limits(), Options{Hidden: 16, Epochs: 3, Seed: 2})
	if err := n.Train(samples); err != nil {
		t.Fatal(err)
	}
	New(limits(), Options{Hidden: 16, Epochs: 3, Seed: 2}).train(samples, 4)
	// A helper has signalled its exit before it is gone, so the count
	// may lag by an instant; it must reach the baseline without another
	// Train.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Train, %d before:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}
