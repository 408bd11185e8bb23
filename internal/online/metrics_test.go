package online

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heteromap/internal/machine"
	"heteromap/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got with testdata/<name> byte for byte
// (regenerate with `go test ./internal/online -run Golden -update`).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// The online exposition is pinned byte for byte, including the
// families that appear only sometimes: the last-retrain gap and the
// durability block.
func TestOnlineExpositionGolden(t *testing.T) {
	m := New(Options{Pair: machine.PrimaryPair(), Model: "tree"})
	m.ingested.Store(12)
	m.processed.Store(9)
	m.probes.Store(2)
	m.retrains.Store(3)
	m.promotions.Store(1)
	m.rejections.Store(2)
	m.drift.Observe("tree", "c1", 0.25)
	m.drift.Observe("na\"ughty\\mo\ndel", "c2", 1.5)
	m.last = &RetrainReport{CandidateGap: 0.125, LiveGap: 0.5}
	m.dur.stats = DurableStats{
		Enabled: true, SnapshotRestored: true, Replayed: 7, CorruptRecords: 1,
		TornSegments: 1, LastSeq: 42, Snapshots: 4, SnapshotErrors: 1,
		Quarantines: 2, WindowFlushes: 3,
	}
	var sb strings.Builder
	obs.WriteText(&sb, m.Families())
	checkGolden(t, "metrics_golden.txt", sb.String())
}
