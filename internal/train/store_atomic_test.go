package train

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heteromap/internal/machine"
)

// testDB builds a tiny deterministic database for persistence tests.
func testDB(t *testing.T) *DB {
	t.Helper()
	return BuildDatabase(machine.PrimaryPair(), Config{Samples: 8, Seed: 3})
}

func TestSaveFileRoundTrip(t *testing.T) {
	db := testDB(t)
	path := filepath.Join(t.TempDir(), "db.hmdb")
	if err := db.SaveFile(path, nil); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDBFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != len(db.Samples) {
		t.Fatalf("loaded %d samples, want %d", len(got.Samples), len(db.Samples))
	}
	for i := range db.Samples {
		if got.Samples[i] != db.Samples[i] {
			t.Fatalf("sample %d differs after round trip", i)
		}
	}
}

// TestTornWriteNeverLoadable simulates a mid-write kill: if the process
// dies with any strict byte prefix of the database on disk, LoadDB must
// refuse it. Combined with SaveFile's write-temp + rename, the real path
// can only ever hold a complete database.
func TestTornWriteNeverLoadable(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	dir := t.TempDir()
	torn := filepath.Join(dir, "torn.hmdb")
	// Every strict prefix is a possible kill point; sweep them all (the
	// file is small), including the empty file.
	for n := 0; n < len(full); n++ {
		if err := os.WriteFile(torn, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadDBFile(torn); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded as a valid database", n, len(full))
		}
	}
}

// TestSaveFileFailureLeavesTargetIntact: when the atomic save cannot
// complete, the previously committed database is untouched and no temp
// litter survives under a loadable name.
func TestSaveFileFailureLeavesTargetIntact(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "db.hmdb")
	if err := db.SaveFile(path, nil); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A save into a missing directory fails before any rename.
	if err := db.SaveFile(filepath.Join(dir, "missing", "db.hmdb"), nil); err == nil {
		t.Fatal("save into a missing directory unexpectedly succeeded")
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed save mutated the committed database")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".hmdb-") || strings.HasPrefix(e.Name(), ".durable-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}
