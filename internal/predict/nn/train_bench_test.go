package nn

import (
	"testing"

	"heteromap/internal/machine"
	"heteromap/internal/train"
)

// BenchmarkTrainDeep128 times the training that `heteromap serve
// -predictor deep` and perfbench's batch-deep128 pay at set-up: one full
// Train of Deep.128 at the default options on the FastConfig database of
// the primary pair, 900 Adam steps, on min(GOMAXPROCS, NumCPU)
// goroutines. The database is built before the timer starts. Under
// -benchtime 1x, go test reports the first -cpu entry from a run made at
// the last entry's GOMAXPROCS, so -cpu 1,2 times GOMAXPROCS 2 twice;
// time each -cpu value in its own invocation.
func BenchmarkTrainDeep128(b *testing.B) {
	pair := machine.PrimaryPair()
	samples := train.BuildDatabase(pair, train.FastConfig()).Samples
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := New(pair.Limits(), Options{Hidden: 128})
		if err := n.Train(samples); err != nil {
			b.Fatal(err)
		}
	}
}
