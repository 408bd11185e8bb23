package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"heteromap/internal/config"
	"heteromap/internal/durable"
	"heteromap/internal/feature"
	"heteromap/internal/obs"
)

// Serving-tier durability: the prediction cache and the registry's
// version counter snapshot periodically to <DurableDir>/cache.snap (a
// sealed durable container), and RecoverDurable restores both on
// restart so a rebooted node answers its first requests warm instead of
// sweeping the predictor for every cell again.
//
// Cache entries are persisted under (model name, feature key) — not the
// live cache key, which embeds a version number that will not survive
// the restart. So a snapshot holds only the entries of each model's
// current version, and records that version's Source. Recovery first
// raises the registry version counter to the persisted floor and
// restamps every already-registered model above it, then rebuilds each
// entry's key against the model's post-restart version. Entries for
// models no longer registered, or now registered from another source,
// are dropped and counted.
const (
	cacheSnapshotKind = "serve-cache"
	cacheSnapshotFile = "cache.snap"
)

// serveSnapshotMeta is record 0 of a cache snapshot.
type serveSnapshotMeta struct {
	// VersionFloor is the registry version counter at snapshot time.
	VersionFloor uint64 `json:"version_floor"`
	// Sources maps each model name to the Source of the version whose
	// answers the snapshot holds.
	Sources map[string]string `json:"sources"`
}

// cacheSnapshotEntry is one persisted prediction (records 1..n).
type cacheSnapshotEntry struct {
	Model   string   `json:"model"`
	FeatKey string   `json:"feat_key"`
	Used    string   `json:"used"`
	M       config.M `json:"m"`
}

// ServeDurableStats is the serving tier's durability picture, exposed
// at /metrics and returned by RecoverDurable.
type ServeDurableStats struct {
	Enabled bool `json:"enabled"`
	// CacheRestored / CacheDropped count snapshot entries readmitted to
	// the cache vs dropped (unregistered model, model from another
	// source, undecodable record).
	CacheRestored int `json:"cache_restored"`
	CacheDropped  int `json:"cache_dropped"`
	// SnapshotRestored reports whether a cache snapshot was restored.
	SnapshotRestored bool `json:"snapshot_restored"`
	// VersionFloor is the registry version counter restored from the
	// snapshot (0: none).
	VersionFloor uint64 `json:"version_floor"`
	// Restamped counts models reissued above the restored floor.
	Restamped int `json:"restamped"`
	// Snapshots / SnapshotErrors count periodic cache snapshots since
	// start.
	Snapshots      uint64 `json:"snapshots"`
	SnapshotErrors uint64 `json:"snapshot_errors"`
	// Quarantines counts snapshot files moved aside for failing
	// integrity verification.
	Quarantines uint64 `json:"quarantines"`
	// StaleTemps counts orphaned temp files swept at startup.
	StaleTemps int `json:"stale_temps_removed"`
}

// serveDurable is the server's durability bookkeeping.
type serveDurable struct {
	mu    sync.Mutex
	stats ServeDurableStats
	stop  chan struct{}
	done  chan struct{}
}

// RecoverDurable climbs the serving tier's recovery ladder: sweep stale
// temps, restore the cache snapshot (quarantining it on any integrity
// failure), raise the registry version floor and restamp models above
// it, readmit cache entries against post-restart versions, and start
// the periodic snapshot loop. Call it after registering models; without
// a DurableDir it is a no-op. Safe to call once per server.
func (s *Server) RecoverDurable() ServeDurableStats {
	dir := s.opts.DurableDir
	if dir == "" {
		return ServeDurableStats{}
	}
	var st ServeDurableStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st
	}
	st.Enabled = true
	st.StaleTemps = durable.RemoveStaleTemps(dir)

	path := filepath.Join(dir, cacheSnapshotFile)
	recs, err := durable.ReadContainer(path, cacheSnapshotKind)
	switch {
	case err == nil && len(recs) >= 1:
		var meta serveSnapshotMeta
		if jerr := json.Unmarshal(recs[0], &meta); jerr != nil {
			if _, qerr := durable.QuarantineFile(path); qerr == nil {
				st.Quarantines++
			}
			break
		}
		st.SnapshotRestored = true
		st.VersionFloor = meta.VersionFloor
		s.registry.EnsureVersionFloor(meta.VersionFloor)
		for _, info := range s.registry.List() {
			if info.Version <= meta.VersionFloor {
				if _, rerr := s.registry.Restamp(info.Name); rerr == nil {
					st.Restamped++
				}
			}
		}
		for _, rec := range recs[1:] {
			var e cacheSnapshotEntry
			if jerr := json.Unmarshal(rec, &e); jerr != nil {
				st.CacheDropped++
				continue
			}
			// A name now registered from another source would serve
			// answers its model never gave.
			m, gerr := s.registry.Get(e.Model)
			if src, ok := meta.Sources[e.Model]; gerr != nil || !ok || src != m.Source {
				st.CacheDropped++
				continue
			}
			// The snapshot carries the wire-format string key; the live
			// cache is keyed on its binary form. An unparsable key is a
			// corrupt record, not a fatal snapshot.
			feat, perr := feature.ParseKey(e.FeatKey)
			if perr != nil {
				st.CacheDropped++
				continue
			}
			// The entry serves feat's canonical text, never the
			// snapshot's own spelling of it.
			s.cache.Put(cacheKeyFor(m, feat), cachedPrediction{M: e.M, Used: e.Used, Key: feat.Key()})
			st.CacheRestored++
		}
	case err != nil && !os.IsNotExist(err):
		if _, qerr := durable.QuarantineFile(path); qerr == nil {
			st.Quarantines++
		}
	}

	s.dur.mu.Lock()
	s.dur.stats = st
	s.dur.mu.Unlock()
	if s.opts.CacheSnapshotEvery > 0 {
		s.startSnapshotLoop()
	}
	return st
}

// SnapshotCache persists the entries of each model's current version
// and the registry version counter as one sealed container. A crash at
// any byte of the write leaves the previous snapshot byte-intact.
func (s *Server) SnapshotCache() error {
	dir := s.opts.DurableDir
	if dir == "" {
		return fmt.Errorf("serve: durability disabled")
	}
	models := s.registry.List()
	meta := serveSnapshotMeta{VersionFloor: s.registry.VersionCounter(), Sources: make(map[string]string, len(models))}
	current := make(map[string]uint64, len(models))
	for _, m := range models {
		meta.Sources[m.Name] = m.Source
		current[m.Name] = m.Version
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	entries := s.cache.export()
	recs := make([][]byte, 0, len(entries)+1)
	recs = append(recs, metaJSON)
	for _, e := range entries {
		// The record drops the version, so an older version's entry
		// would come back as the current one's.
		if e.key.Version != current[e.key.Model] {
			continue
		}
		// Persist the wire-format string key (the snapshot format
		// predates the binary key and must survive restarts across
		// versions); an entry whose binary key does not decode to a
		// valid vector cannot be represented and is skipped.
		feat, ferr := feature.FromBinary(e.key.Feat)
		if ferr != nil {
			continue
		}
		rec, jerr := json.Marshal(cacheSnapshotEntry{
			Model: e.key.Model, FeatKey: feat.Key(), Used: e.val.Used, M: e.val.M,
		})
		if jerr != nil {
			continue
		}
		recs = append(recs, rec)
	}
	path := filepath.Join(dir, cacheSnapshotFile)
	err = durable.WriteContainer(path, cacheSnapshotKind, recs, "cache", s.opts.Kill)
	s.dur.mu.Lock()
	if err != nil {
		s.dur.stats.SnapshotErrors++
	} else {
		s.dur.stats.Snapshots++
	}
	s.dur.mu.Unlock()
	return err
}

// DurableStats returns the serving tier's current durability picture.
func (s *Server) DurableStats() ServeDurableStats {
	s.dur.mu.Lock()
	defer s.dur.mu.Unlock()
	return s.dur.stats
}

// startSnapshotLoop runs SnapshotCache on the configured cadence until
// stopSnapshotLoop (Shutdown takes a final snapshot; Kill just aborts,
// exactly like the crash it stands in for).
func (s *Server) startSnapshotLoop() {
	s.dur.mu.Lock()
	if s.dur.stop != nil {
		s.dur.mu.Unlock()
		return
	}
	s.dur.stop = make(chan struct{})
	s.dur.done = make(chan struct{})
	stop, done := s.dur.stop, s.dur.done
	s.dur.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(s.opts.CacheSnapshotEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.SnapshotCache()
			}
		}
	}()
}

func (s *Server) stopSnapshotLoop() {
	s.dur.mu.Lock()
	stop, done := s.dur.stop, s.dur.done
	s.dur.stop, s.dur.done = nil, nil
	s.dur.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// durableFamilies is the serving tier's durability block of /metrics.
func (s *Server) durableFamilies() []obs.Family {
	d := s.DurableStats()
	return []obs.Family{
		obs.Gauge("heteromap_serve_cache_restored", "Cache entries readmitted from the durable snapshot at startup.", int64(d.CacheRestored)),
		obs.Counter("heteromap_serve_cache_snapshots_total", "Periodic cache snapshots taken since start.", d.Snapshots),
		obs.Counter("heteromap_serve_cache_snapshot_errors_total", "Failed cache snapshot attempts.", d.SnapshotErrors),
		obs.Gauge("heteromap_serve_version_floor_restored", "Registry version floor restored from the durable snapshot.", int64(d.VersionFloor)),
		obs.Counter("heteromap_serve_durable_quarantines_total", "Serving-tier artifacts quarantined for failing verification.", d.Quarantines),
	}
}
