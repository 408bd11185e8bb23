package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heteromap/internal/config"
	"heteromap/internal/durable"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/predict/dtree"
	"heteromap/internal/train"
)

// durableServer builds a server with the decision tree registered and
// durability enabled on dir, then runs the recovery ladder.
func durableServer(t *testing.T, dir string, kill durable.KillFunc) *Server {
	t.Helper()
	pair := machine.PrimaryPair()
	s := New(Options{Pair: pair, DurableDir: dir, Kill: kill})
	if _, err := s.Registry().Register("tree", "builtin decision tree",
		dtree.New(pair.Limits())); err != nil {
		t.Fatal(err)
	}
	s.RecoverDurable()
	return s
}

// fillCache puts n predictions into the server's cache under the
// registered tree model's live version and returns the feature vectors.
func fillCache(t *testing.T, s *Server, n int) []feature.Vector {
	t.Helper()
	model, err := s.Registry().Get("tree")
	if err != nil {
		t.Fatal(err)
	}
	limits := s.Registry().Pair().Limits()
	feats := make([]feature.Vector, n)
	for i := range feats {
		var f feature.Vector
		f[0] = float64(i%7) / 10
		f[1] = float64(i%5) / 10
		f[13] = float64(i%3) / 10
		feats[i] = f
		s.cache.Put(cacheKeyFor(model, f), cachedPrediction{
			M: config.DefaultGPU(limits), Used: "DTree", Key: f.Key(),
		})
	}
	return feats
}

// The snapshot wire format carries the string feature key while the live
// cache is keyed binary; a snapshot record whose key does not parse is
// dropped and counted rather than poisoning the restore.
func TestCacheSnapshotRejectsBadFeatKey(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, nil)
	fillCache(t, s, 2)
	if err := s.SnapshotCache(); err != nil {
		t.Fatal(err)
	}
	// Rewrite the snapshot with one record's key corrupted.
	path := filepath.Join(dir, cacheSnapshotFile)
	recs, err := durable.ReadContainer(path, cacheSnapshotKind)
	if err != nil {
		t.Fatal(err)
	}
	var e cacheSnapshotEntry
	if err := json.Unmarshal(recs[1], &e); err != nil {
		t.Fatal(err)
	}
	e.FeatKey = "not,a,key"
	bad, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	recs[1] = bad
	if err := durable.WriteContainer(path, cacheSnapshotKind, recs, "cache", nil); err != nil {
		t.Fatal(err)
	}

	s2 := durableServer(t, dir, nil)
	st := s2.DurableStats()
	if st.CacheRestored != 1 {
		t.Fatalf("restored %d entries, want 1", st.CacheRestored)
	}
	if st.CacheDropped != 1 {
		t.Fatalf("dropped %d entries, want 1 (the corrupted key)", st.CacheDropped)
	}
}

// A snapshot may spell a key's components in any float syntax ParseKey
// accepts; the restored entry serves the vector's canonical Key text.
func TestRestoredEntryServesCanonicalKey(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, nil)
	f := fillCache(t, s, 2)[1]
	if err := s.SnapshotCache(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, cacheSnapshotFile)
	recs, err := durable.ReadContainer(path, cacheSnapshotKind)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs[1:] {
		var e cacheSnapshotEntry
		if err := json.Unmarshal(rec, &e); err != nil {
			t.Fatal(err)
		}
		// "0" becomes "0.0" and "0.1" becomes "0.10": the same values.
		parts := strings.Split(e.FeatKey, ",")
		for j, p := range parts {
			if strings.Contains(p, ".") {
				parts[j] = p + "0"
			} else {
				parts[j] = p + ".0"
			}
		}
		e.FeatKey = strings.Join(parts, ",")
		if recs[i+1], err = json.Marshal(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := durable.WriteContainer(path, cacheSnapshotKind, recs, "cache", nil); err != nil {
		t.Fatal(err)
	}

	s2 := durableServer(t, dir, nil)
	if st := s2.DurableStats(); st.CacheRestored != 2 {
		t.Fatalf("restored %d entries, want 2", st.CacheRestored)
	}
	body, err := json.Marshal(PredictRequest{Model: "tree", Features: f[:]})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s2.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
	var resp PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached || resp.Key != f.Key() {
		t.Fatalf("restored entry served key %q (cached %v), want %q", resp.Key, resp.Cached, f.Key())
	}
}

// TestCacheSnapshotWarmRestart: a restarted server restores its cache
// entries remapped to post-restart model versions, and the registry
// version counter never falls below the pre-crash floor.
func TestCacheSnapshotWarmRestart(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, nil)
	feats := fillCache(t, s, 24)
	preVersion := s.Registry().VersionCounter()
	if err := s.SnapshotCache(); err != nil {
		t.Fatal(err)
	}
	// Simulated kill -9: the server is abandoned, no Shutdown.

	s2 := durableServer(t, dir, nil)
	st := s2.DurableStats()
	if !st.SnapshotRestored {
		t.Fatal("restart did not restore the cache snapshot")
	}
	if st.CacheRestored != 24 {
		t.Fatalf("restored %d cache entries, want 24", st.CacheRestored)
	}
	if st.VersionFloor != preVersion {
		t.Fatalf("version floor %d, want %d", st.VersionFloor, preVersion)
	}
	// Version monotonicity across the crash: the restamped model's
	// version exceeds every pre-crash version.
	m2, err := s2.Registry().Get("tree")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Version <= preVersion {
		t.Fatalf("post-restart version %d did not clear pre-crash floor %d", m2.Version, preVersion)
	}
	if st.Restamped == 0 {
		t.Fatal("no model was restamped above the restored floor")
	}
	// The restored entries are live hits under the NEW version's keys.
	hitsBefore, _, _ := s2.cache.Stats()
	for _, f := range feats {
		if _, ok := s2.cache.Get(cacheKeyFor(m2, f)); !ok {
			t.Fatalf("restored cache missed feature %v", f)
		}
	}
	hitsAfter, _, _ := s2.cache.Stats()
	if hitsAfter-hitsBefore != uint64(len(feats)) {
		t.Fatalf("warm restart hit %d of %d restored cells", hitsAfter-hitsBefore, len(feats))
	}
}

// TestCacheSnapshotDropsUnknownModels: entries for a model the restarted
// process never registered are dropped and counted, not resurrected.
func TestCacheSnapshotDropsUnknownModels(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, nil)
	fillCache(t, s, 4)
	// A second model's entries ride the same snapshot.
	pair := s.Registry().Pair()
	if _, err := s.Registry().Register("ghost", "test", dtree.New(pair.Limits())); err != nil {
		t.Fatal(err)
	}
	ghost, _ := s.Registry().Get("ghost")
	var f feature.Vector
	f[2] = 0.9
	s.cache.Put(cacheKeyFor(ghost, f), cachedPrediction{M: config.DefaultGPU(pair.Limits()), Used: "DTree", Key: f.Key()})
	if err := s.SnapshotCache(); err != nil {
		t.Fatal(err)
	}

	s2 := durableServer(t, dir, nil) // registers only "tree"
	st := s2.DurableStats()
	if st.CacheRestored != 4 {
		t.Fatalf("restored %d entries, want 4", st.CacheRestored)
	}
	if st.CacheDropped != 1 {
		t.Fatalf("dropped %d entries, want 1 (the ghost model's)", st.CacheDropped)
	}
}

// A restart readmits a snapshot's entries only under a model of the
// same source, and the snapshot holds the current versions' answers
// only: a node that hot-reloaded "tree" from a database and restarts on
// the builtin tree serves none of the database's answers as the tree's.
func TestCacheSnapshotRestoresOnlyTheSameSource(t *testing.T) {
	pair := machine.PrimaryPair()
	dbPath := saveDB(t, train.BuildDatabase(pair, train.Config{Samples: 64, Seed: 7}))
	f := testFeature(3)
	dir := t.TempDir()
	s := durableServer(t, dir, nil)
	if r, status := predictFeat(context.Background(), s, "tree", f); status != 0 {
		t.Fatalf("status %d: %s", status, r.Error)
	}
	if _, err := s.Registry().ReloadDB("tree", dbPath); err != nil {
		t.Fatal(err)
	}
	db, status := predictFeat(context.Background(), s, "tree", f)
	if status != 0 || db.PredictorUsed != "DB Lookup" {
		t.Fatalf("reloaded answer: %s (status %d %q), want DB Lookup", db.PredictorUsed, status, db.Error)
	}
	if err := s.SnapshotCache(); err != nil {
		t.Fatal(err)
	}

	builtin := durableServer(t, dir, nil)
	if st := builtin.DurableStats(); st.CacheRestored != 0 || st.CacheDropped != 1 {
		t.Fatalf("restart on the builtin tree restored %d and dropped %d entries, want 0 and 1",
			st.CacheRestored, st.CacheDropped)
	}
	if r, status := predictFeat(context.Background(), builtin, "tree", f); status != 0 || r.Cached || r.PredictorUsed == "DB Lookup" {
		t.Fatalf("restart on the builtin tree served %s (cached %v, status %d %q), want its own uncached answer",
			r.PredictorUsed, r.Cached, status, r.Error)
	}

	reloaded := New(Options{Pair: pair, DurableDir: dir})
	if _, err := reloaded.Registry().ReloadDB("tree", dbPath); err != nil {
		t.Fatal(err)
	}
	if st := reloaded.RecoverDurable(); st.CacheRestored != 1 {
		t.Fatalf("restart on the same database restored %d entries, want 1", st.CacheRestored)
	}
	if r, status := predictFeat(context.Background(), reloaded, "tree", f); status != 0 || !r.Cached || r.M != db.M {
		t.Fatalf("restart on the same database served %s %v (cached %v, status %d %q), want %v from the cache",
			r.PredictorUsed, r.M, r.Cached, status, r.Error, db.M)
	}
}

// A snapshot written before snapshots recorded their models' sources
// cannot tell which model gave its answers, so it restores none of
// them; its version floor still holds.
func TestCacheSnapshotWithoutSourcesRestoresNothing(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, nil)
	fillCache(t, s, 3)
	if err := s.SnapshotCache(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, cacheSnapshotFile)
	recs, err := durable.ReadContainer(path, cacheSnapshotKind)
	if err != nil {
		t.Fatal(err)
	}
	floor := s.Registry().VersionCounter()
	recs[0] = []byte(fmt.Sprintf(`{"version_floor":%d}`, floor))
	if err := durable.WriteContainer(path, cacheSnapshotKind, recs, "cache", nil); err != nil {
		t.Fatal(err)
	}

	st := durableServer(t, dir, nil).DurableStats()
	if !st.SnapshotRestored || st.VersionFloor != floor || st.CacheRestored != 0 || st.CacheDropped != 3 {
		t.Fatalf("restore of a snapshot without sources: %+v, want floor %d, 0 restored, 3 dropped", st, floor)
	}
}

// TestCacheSnapshotKillSweep: a crash at every byte offset of the cache
// snapshot write leaves the committed snapshot byte-intact; a final
// unkilled snapshot commits cleanly over the litter.
func TestCacheSnapshotKillSweep(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, nil)
	fillCache(t, s, 8)
	if err := s.SnapshotCache(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, cacheSnapshotFile)
	before, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(before))
	stride := int64(1)
	if testing.Short() {
		stride = 41
	}
	for off := int64(0); off <= size; off += stride {
		armed := off
		s.opts.Kill = func(target string) (int64, bool) {
			if target != "cache" {
				return 0, false
			}
			return armed, true
		}
		err := s.SnapshotCache()
		if err == nil {
			t.Fatalf("offset %d: killed snapshot reported success", off)
		}
		if !errors.Is(err, durable.ErrKilled) {
			t.Fatalf("offset %d: unexpected error %v", off, err)
		}
		after, rerr := os.ReadFile(snapPath)
		if rerr != nil {
			t.Fatalf("offset %d: committed snapshot unreadable: %v", off, rerr)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("offset %d: killed snapshot mutated the committed snapshot", off)
		}
	}
	s.opts.Kill = nil
	if err := s.SnapshotCache(); err != nil {
		t.Fatal(err)
	}
	s2 := durableServer(t, dir, nil)
	if st := s2.DurableStats(); !st.SnapshotRestored || st.CacheRestored != 8 {
		t.Fatalf("post-sweep restart stats %+v, want 8 restored", st)
	}
}

// TestCorruptCacheSnapshotQuarantined: bit rot in the snapshot means a
// cold (but correct) start, with the evidence moved aside.
func TestCorruptCacheSnapshotQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, nil)
	fillCache(t, s, 6)
	if err := s.SnapshotCache(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, cacheSnapshotFile)
	data, _ := os.ReadFile(snapPath)
	data[len(data)/3] ^= 0x10
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := durableServer(t, dir, nil)
	st := s2.DurableStats()
	if st.SnapshotRestored {
		t.Fatal("corrupt snapshot restored as valid")
	}
	if st.Quarantines != 1 {
		t.Fatalf("quarantines = %d, want 1", st.Quarantines)
	}
	if s2.cache.Len() != 0 {
		t.Fatal("corrupt snapshot populated the cache")
	}
	if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
		t.Fatal("corrupt snapshot still at its serving path")
	}
}

// TestGoldenSetSaveAtomic: SaveGoldenSet goes through the atomic write
// path — round-trips, leaves no temp litter, and a failed save leaves
// the previous set untouched.
func TestGoldenSetSaveAtomic(t *testing.T) {
	pair := machine.PrimaryPair()
	reg := NewRegistry(pair)
	ref, err := reg.Register("tree", "test", dtree.New(pair.Limits()))
	if err != nil {
		t.Fatal(err)
	}
	cases, err := RecordGoldenSet(ref, DefaultGoldenRequests(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "golden.json")
	if err := SaveGoldenSet(path, cases); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadGoldenSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(cases) {
		t.Fatalf("loaded %d cases, want %d", len(loaded), len(cases))
	}
	before, _ := os.ReadFile(path)
	// A save into a missing directory fails before any rename...
	if err := SaveGoldenSet(filepath.Join(dir, "missing", "golden.json"), cases); err == nil {
		t.Fatal("save into missing directory succeeded")
	}
	// ...and the committed set is untouched, with no temp litter.
	after, _ := os.ReadFile(path)
	if !bytes.Equal(before, after) {
		t.Fatal("failed save mutated the committed golden set")
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.Name() != "golden.json" {
			t.Fatalf("unexpected file %s after atomic save", e.Name())
		}
	}
}
