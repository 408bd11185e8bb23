package train

import (
	"runtime"
	"testing"

	"heteromap/internal/machine"
)

// BuildDatabase derives each sample's RNG from the sample index, never
// from the worker that happens to claim it — so the database is a pure
// function of (pair, Config) regardless of GOMAXPROCS. The conformance
// suite leans on this (one shared database serves every learner), and
// so does anyone comparing training runs across machines.
func TestBuildDatabaseWorkerCountInvariant(t *testing.T) {
	pair := machine.PrimaryPair()
	cfg := Config{Samples: 48, Seed: 7}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	counts := []int{1, 4, runtime.NumCPU()}
	var ref *DB
	for _, procs := range counts {
		runtime.GOMAXPROCS(procs)
		db := BuildDatabase(pair, cfg)
		if len(db.Samples) != cfg.Samples {
			t.Fatalf("GOMAXPROCS=%d: %d samples, want %d", procs, len(db.Samples), cfg.Samples)
		}
		if ref == nil {
			ref = db
			continue
		}
		for i := range db.Samples {
			if db.Samples[i] != ref.Samples[i] {
				t.Fatalf("GOMAXPROCS=%d: sample %d differs from GOMAXPROCS=%d:\n%+v\nvs\n%+v",
					procs, i, counts[0], db.Samples[i], ref.Samples[i])
			}
		}
	}
}

// Different seeds must actually produce different databases — the
// invariance above would be trivially true of a constant function.
func TestBuildDatabaseSeedSensitivity(t *testing.T) {
	pair := machine.PrimaryPair()
	a := BuildDatabase(pair, Config{Samples: 8, Seed: 1})
	b := BuildDatabase(pair, Config{Samples: 8, Seed: 2})
	for i := range a.Samples {
		if a.Samples[i].Features != b.Samples[i].Features {
			return
		}
	}
	t.Fatal("seeds 1 and 2 generated identical feature streams")
}
