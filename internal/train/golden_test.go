package train

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"heteromap/internal/machine"
)

// dbHash is the FNV-64a hash of every sample's Features and Target, in
// sample order, as little-endian float64 bits.
func dbHash(db *DB) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	for i := range db.Samples {
		for _, x := range db.Samples[i].Features {
			put(x)
		}
		for _, x := range db.Samples[i].Target {
			put(x)
		}
	}
	return h.Sum64()
}

// TestBuildDatabaseGolden pins the databases bit for bit: FastConfig on
// the primary pair (what a Deep.128 node trains on at start-up), and a
// 64-sample energy database on each pair. A change to how candidates are
// priced or searched must leave every target where it was.
func TestBuildDatabaseGolden(t *testing.T) {
	energy := Config{Samples: 64, Seed: 42, Objective: Energy}
	cases := []struct {
		name string
		pair machine.Pair
		cfg  Config
		want uint64
	}{
		{"fast/primary", machine.PrimaryPair(), FastConfig(), 0x033f50fb87c41b25},
		{"energy/primary", machine.PrimaryPair(), energy, 0x8460f43b4e1e4b8a},
		{"energy/970", machine.StrongGPUPair(), energy, 0x70030169d42463b4},
		{"energy/cpu40", machine.CPU40Pair(), energy, 0x6435bd1c50847c7a},
		{"energy/970cpu40", machine.StrongCPU40Pair(), energy, 0x49b17ab98bdbacca},
	}
	for _, tc := range cases {
		if got := dbHash(BuildDatabase(tc.pair, tc.cfg)); got != tc.want {
			t.Errorf("%s: database hash %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
