package train

import (
	"testing"

	"heteromap/internal/machine"
)

// BenchmarkBuildDatabase builds the FastConfig database on the primary
// pair, the one a Deep.128 node prices before it trains. BuildDatabase
// runs GOMAXPROCS workers, so -cpu sets its parallelism.
func BenchmarkBuildDatabase(b *testing.B) {
	pair := machine.PrimaryPair()
	for i := 0; i < b.N; i++ {
		BuildDatabase(pair, FastConfig())
	}
}
