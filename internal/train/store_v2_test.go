package train

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heteromap/internal/durable"
	"heteromap/internal/machine"
	"heteromap/internal/predict"
)

// TestLegacyCompatLoad: a database written in the pre-checksum HMDB
// generation still loads, sample-for-sample.
func TestLegacyCompatLoad(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := db.SaveLegacy(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDB(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("legacy database rejected: %v", err)
	}
	if len(got.Samples) != len(db.Samples) {
		t.Fatalf("loaded %d samples, want %d", len(got.Samples), len(db.Samples))
	}
	for i := range db.Samples {
		if got.Samples[i] != db.Samples[i] {
			t.Fatalf("sample %d differs after legacy round trip", i)
		}
	}
}

// auxFixtureDB is the database testdata/aux-v2.hmdb holds. An earlier
// build wrote that file with per-sample aux blobs on samples 0, 2 and 3
// ("outcome-0", four times "outcome-2 ", "outcome-3").
func auxFixtureDB() *DB {
	pair := machine.PrimaryPair()
	db := &DB{Pair: pair, Limits: pair.Limits(), Objective: Energy, Samples: make([]predict.Sample, 4)}
	for i := range db.Samples {
		s := &db.Samples[i]
		for j := range s.Features {
			s.Features[j] = float64(i) + float64(j)/64
		}
		for j := range s.Target {
			s.Target[j] = float64((i+j)%21) / 20
		}
	}
	return db
}

// TestLoadDBReadsAuxBearingFile: a database written with aux blobs still
// loads sample for sample, and its aux bytes stay under the record
// checksums, so a flipped aux byte fails with ErrCorrupt.
func TestLoadDBReadsAuxBearingFile(t *testing.T) {
	path := filepath.Join("testdata", "aux-v2.hmdb")
	got, err := LoadDBFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := auxFixtureDB()
	if got.Pair.Name() != want.Pair.Name() || got.Objective != want.Objective {
		t.Fatalf("loaded %s/%v, want %s/%v", got.Pair.Name(), got.Objective, want.Pair.Name(), want.Objective)
	}
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("loaded %d samples, want %d", len(got.Samples), len(want.Samples))
	}
	for i := range want.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte("outcome-2"))
	if i < 0 {
		t.Fatal("fixture holds no aux blob")
	}
	data[i] ^= 0x01
	if _, err := LoadDB(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped aux byte: err = %v, want ErrCorrupt", err)
	}
}

// TestV2RejectsEveryByteFlip: HMD2 is never parse-and-prayed — any
// single corrupted byte fails the load with ErrCorrupt (or a parse
// error for bytes that break framing before a checksum is reached).
func TestV2RejectsEveryByteFlip(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for i := range full {
		mutated := append([]byte(nil), full...)
		mutated[i] ^= 0x20
		if _, err := LoadDB(bytes.NewReader(mutated)); err == nil {
			t.Fatalf("byte flip at offset %d/%d loaded as a valid database", i, len(full))
		}
	}
	// Truncation at every length is likewise rejected (the seal is
	// missing), and trailing bytes after the seal are rejected too.
	for n := 0; n < len(full); n++ {
		if _, err := LoadDB(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded as a valid database", n, len(full))
		}
	}
	if _, err := LoadDB(bytes.NewReader(append(append([]byte(nil), full...), 0))); err == nil {
		t.Fatal("trailing garbage after the seal accepted")
	}
}

// TestStoreKillPointSweep is the crash-safety property for the model
// store: a kill injected at every byte offset of a SaveFile — plus
// the commit window before the rename — leaves the committed predecessor
// loadable and byte-intact, with only quarantinable temp litter behind.
func TestStoreKillPointSweep(t *testing.T) {
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
	size := int64(len(before))
	stride := int64(1)
	if testing.Short() {
		stride = 37
	}
	for off := int64(0); off <= size; off += stride {
		kill := func(string) (int64, bool) { return off, true }
		err := db.SaveFile(path, kill)
		if err == nil {
			t.Fatalf("offset %d: killed save reported success", off)
		}
		if !errors.Is(err, durable.ErrKilled) {
			t.Fatalf("offset %d: unexpected error %v", off, err)
		}
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatalf("offset %d: committed database unreadable: %v", off, rerr)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("offset %d: killed save mutated the committed database", off)
		}
		if _, lerr := LoadDBFile(path); lerr != nil {
			t.Fatalf("offset %d: committed database no longer loads: %v", off, lerr)
		}
	}
	if n := durable.RemoveStaleTemps(dir); n == 0 {
		t.Fatal("kill sweep left no temp litter (kills did not land mid-write)")
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), durable.TempPrefix) {
			t.Fatalf("stale temp %s survived recovery sweep", e.Name())
		}
	}
}

// TestRegenerateFuzzCorpus rewrites the checked-in seed corpus for
// FuzzLoadDB when HM_WRITE_FUZZ_CORPUS=1; otherwise it verifies the
// corpus directory exists (CI's bounded fuzz run starts from it).
func TestRegenerateFuzzCorpus(t *testing.T) {
	corpusDir := filepath.Join("testdata", "fuzz", "FuzzLoadDB")
	if os.Getenv("HM_WRITE_FUZZ_CORPUS") == "" {
		if _, err := os.Stat(corpusDir); err != nil {
			t.Fatalf("checked-in corpus missing (regenerate with HM_WRITE_FUZZ_CORPUS=1): %v", err)
		}
		return
	}
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(entry string, data []byte) {
		t.Helper()
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(corpusDir, entry), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db := BuildDatabase(machine.PrimaryPair(), Config{Samples: 3, Seed: 7})
	var v2 bytes.Buffer
	if err := db.Save(&v2); err != nil {
		t.Fatal(err)
	}
	var legacy bytes.Buffer
	if err := db.SaveLegacy(&legacy); err != nil {
		t.Fatal(err)
	}
	write("sealed-v2", v2.Bytes())
	write("legacy-hmdb", legacy.Bytes())
	write("truncated-v2", v2.Bytes()[:len(v2.Bytes())/2])
	mut := append([]byte(nil), v2.Bytes()...)
	mut[len(mut)-6] ^= 0x01
	write("footer-bit-rot", mut)
}

// FuzzLoadDB feeds arbitrary bytes through both store generations'
// loaders: no input may panic, and no HMD2 input missing a valid seal
// may be accepted.
func FuzzLoadDB(f *testing.F) {
	db := BuildDatabase(machine.PrimaryPair(), Config{Samples: 3, Seed: 7})
	var v2 bytes.Buffer
	if err := db.Save(&v2); err != nil {
		f.Fatal(err)
	}
	var legacy bytes.Buffer
	if err := db.SaveLegacy(&legacy); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(v2.Bytes())
	f.Add(legacy.Bytes())
	f.Add(v2.Bytes()[:len(v2.Bytes())/2])
	mut := append([]byte(nil), v2.Bytes()...)
	mut[len(mut)-6] ^= 0x01
	f.Add(mut)
	withAux, err := os.ReadFile(filepath.Join("testdata", "aux-v2.hmdb"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withAux)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadDB(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got == nil {
			t.Fatal("nil database accepted without error")
		}
		// An accepted HMD2 input re-saves to a database with the same
		// sample count (the loader only accepts what a writer produces).
		if len(data) >= 4 && string(data[:4]) == storeMagicV2 {
			var rt bytes.Buffer
			if err := got.Save(&rt); err != nil {
				t.Fatalf("accepted database failed re-save: %v", err)
			}
			back, err := LoadDB(bytes.NewReader(rt.Bytes()))
			if err != nil {
				t.Fatalf("re-saved database failed reload: %v", err)
			}
			if len(back.Samples) != len(got.Samples) {
				t.Fatal("sample count changed across round trip")
			}
		}
	})
}
