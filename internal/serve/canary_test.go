package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"heteromap/internal/config"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/predict"
	"heteromap/internal/train"
)

// saveDB writes a training database to a temp file and returns its path.
func saveDB(t *testing.T, db *train.DB) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.hmdb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// stableM returns a mapping that survives the Normalize/FromNormalized
// round trip unchanged, so a DB-lookup model can reproduce it exactly.
func stableM(limits config.Limits, m config.M) config.M {
	return config.FromNormalized(m.Clamp(limits).Normalize(limits), limits)
}

// goldenFixture registers a fixed reference model and records a strict
// golden set from it, returning the registry, the canary config and the
// golden feature/answer pairs for building agreeing or disagreeing DBs.
func goldenFixture(t *testing.T) (*Registry, *CanaryConfig, []GoldenCase) {
	t.Helper()
	r := NewRegistry(machine.PrimaryPair())
	limits := r.Pair().Limits()
	ref, err := r.Register("live", "v1", fixedPred{m: stableM(limits, config.DefaultGPU(limits))})
	if err != nil {
		t.Fatal(err)
	}
	cases, err := RecordGoldenSet(ref, DefaultGoldenRequests(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	return r, &CanaryConfig{Cases: cases, MaxLatency: time.Second}, cases
}

// dbForGolden builds a database answering exactly m for every golden
// characterization, so canary agreement (or disagreement) is controlled.
func dbForGolden(t *testing.T, r *Registry, cases []GoldenCase, m config.M) *train.DB {
	t.Helper()
	limits := r.Pair().Limits()
	db := &train.DB{Pair: r.Pair(), Limits: limits}
	for i := range cases {
		feat, err := ResolveFeatures(&cases[i].Req, feature.DiscretizationStep)
		if err != nil {
			t.Fatal(err)
		}
		db.Samples = append(db.Samples, predict.Sample{
			Features: feat,
			Target:   m.Clamp(limits).Normalize(limits),
		})
	}
	return db
}

// A candidate that agrees with the golden set installs; one that answers
// a different (but valid, deployable) mapping is rejected with
// ErrCanaryRejected, quarantined, and never becomes the active snapshot.
func TestReloadCanaryAcceptsAgreeingRejectsWrongModel(t *testing.T) {
	r, canary, cases := goldenFixture(t)
	limits := r.Pair().Limits()
	before, _ := r.Get("live")

	good := saveDB(t, dbForGolden(t, r, cases, stableM(limits, config.DefaultGPU(limits))))
	m, rep, err := r.ReloadDBValidated("live", good, canary)
	if err != nil {
		t.Fatalf("agreeing candidate rejected: %v (report %+v)", err, rep)
	}
	if !rep.Passed || rep.Cases != len(cases) || rep.Mismatches != 0 {
		t.Fatalf("pass report %+v", rep)
	}
	if active, _ := r.Get("live"); active != m {
		t.Fatal("passing candidate not installed")
	}
	if lg := r.LastGood("live"); lg != before {
		t.Fatal("previous snapshot not retained as last-known-good")
	}

	// The wrong model: loads cleanly, answers valid Ms, disagrees.
	wrong := saveDB(t, dbForGolden(t, r, cases, stableM(limits, config.DefaultMulticore(limits))))
	_, rep, err = r.ReloadDBValidated("live", wrong, canary)
	if err == nil {
		t.Fatal("disagreeing candidate accepted")
	}
	if !errors.Is(err, ErrCanaryRejected) {
		t.Fatalf("error %v does not wrap ErrCanaryRejected", err)
	}
	if rep.Passed || rep.Mismatches == 0 {
		t.Fatalf("fail report %+v", rep)
	}
	if active, _ := r.Get("live"); active != m {
		t.Fatal("rejected candidate disturbed the active snapshot")
	}
	q := r.Quarantined()
	if len(q) != 1 || q[0].Name != "live" || q[0].Version <= m.Version {
		t.Fatalf("quarantine = %+v", q)
	}
}

// A corrupt or empty database reload must error, leave the active
// snapshot serving byte-identical predictions, and leave no trace of the
// rejected version in the prediction cache.
func TestReloadRollbackOnCorruptAndEmptyDB(t *testing.T) {
	r, canary, cases := goldenFixture(t)
	active, _ := r.Get("live")
	feat, err := ResolveFeatures(&cases[0].Req, feature.DiscretizationStep)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(active.Select(feat).M)

	cache := NewCache(64, 2)
	cache.Put(cacheKeyFor(active, feat), cachedPrediction{M: active.Select(feat).M})

	corrupt := filepath.Join(t.TempDir(), "corrupt.hmdb")
	if err := os.WriteFile(corrupt, []byte("HMDBgarbage-truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := saveDB(t, &train.DB{Pair: r.Pair(), Limits: r.Pair().Limits()})

	for _, path := range []string{corrupt, empty} {
		if _, _, err := r.ReloadDBValidated("live", path, canary); err == nil {
			t.Fatalf("bad database %s accepted", path)
		}
		now, _ := r.Get("live")
		if now != active {
			t.Fatalf("bad reload of %s replaced the active snapshot", path)
		}
		gotJSON, _ := json.Marshal(now.Select(feat).M)
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("prediction drifted after bad reload: %s != %s", gotJSON, wantJSON)
		}
	}

	// No rejected version may have touched the cache: the only entry is
	// the active version's.
	if n := cache.Len(); n != 1 {
		t.Fatalf("cache held %d entries, want only the active version's", n)
	}
	for _, q := range r.Quarantined() {
		if _, ok := cache.Get(CacheKey{Model: "live", Version: q.Version, Feat: feat.Binary()}); ok {
			t.Fatalf("rejected version %d left a cache entry", q.Version)
		}
	}
	if len(r.Quarantined()) != 2 {
		t.Fatalf("quarantine = %+v", r.Quarantined())
	}
}

// A rejected /v1/reload leaves the live model's warm keys warm: the
// candidate never served, so the cache holds nothing of it to drop.
func TestRejectedReloadKeepsWarmKey(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	predict := func() PredictResponse {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/predict", bfsRequest("tree"))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict status %d: %s", resp.StatusCode, body)
		}
		var pr PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}
	predict()
	missing := reloadRequest{Model: "tree", Path: filepath.Join(t.TempDir(), "missing.hmdb")}
	if resp, body := postJSON(t, ts.URL+"/v1/reload", missing); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reload of a missing file: status %d: %s", resp.StatusCode, body)
	}
	if pr := predict(); !pr.Cached {
		t.Fatal("a rejected reload turned the live model's warm key cold")
	}
}

// The canary latency SLO rejects a candidate whose predictor is too slow,
// and a nil canary config admits anything loadable.
func TestCanaryLatencySLOAndNilConfig(t *testing.T) {
	r, _, cases := goldenFixture(t)
	limits := r.Pair().Limits()
	slow, err := r.newModel("live", "slow", &slowPred{
		m: config.DefaultGPU(limits), delay: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tight := &CanaryConfig{Cases: cases[:2], MaxLatency: 100 * time.Microsecond}
	if _, err := tight.Validate(slow); err == nil {
		t.Fatal("latency SLO not enforced")
	}
	var nilCfg *CanaryConfig
	rep, err := nilCfg.Validate(slow)
	if err != nil || !rep.Passed {
		t.Fatalf("nil canary config rejected: %v %+v", err, rep)
	}
}

// Golden sets round-trip through disk, and the loader rejects junk.
func TestGoldenSetSaveLoadRoundTrip(t *testing.T) {
	_, _, cases := goldenFixture(t)
	path := filepath.Join(t.TempDir(), "golden.json")
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
	for i := range loaded {
		if *loaded[i].WantM != *cases[i].WantM || loaded[i].Req.Bench != cases[i].Req.Bench {
			t.Fatalf("case %d drifted through disk", i)
		}
	}
	if _, err := LoadGoldenSet(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing golden set accepted")
	}
	badPath := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(badPath, []byte("[]"), 0o644)
	if _, err := LoadGoldenSet(badPath); err == nil {
		t.Fatal("empty golden set accepted")
	}
}
