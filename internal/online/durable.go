package online

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"heteromap/internal/durable"
)

// Durability layout under Options.DurableDir:
//
//	<dir>/window.snap   container (kind "online-window"): record 0 is
//	                    snapshotMeta JSON, records 1..n are encoded
//	                    outcomes, oldest first
//	<dir>/wal/          feedback write-ahead log segments
//
// The recovery ladder in recoverDurable runs strictly in order: sweep
// stale temps, restore the newest snapshot (quarantining it on any
// integrity failure), replay the WAL above the snapshot's sequence
// floor, then open a fresh WAL segment for new appends. Every rung
// degrades to the one below it — a corrupt snapshot costs the window
// prefix the WAL no longer covers, never the process.
const (
	snapshotKind = "online-window"
	snapshotFile = "window.snap"
	walSubdir    = "wal"
)

// snapshotMeta is record 0 of a window snapshot.
type snapshotMeta struct {
	// LastSeq is the WAL sequence number the snapshot covers: replay
	// resumes strictly above it.
	LastSeq uint64 `json:"last_seq"`
	// Drift is the detector state at snapshot time.
	Drift detectorState `json:"drift"`
	// Processed carries the collector's lifetime outcome count across
	// restarts, so the counter stays monotone over a crash.
	Processed uint64 `json:"processed"`
}

// DurableStats is the durability picture exposed at /v1/online and in
// the Prometheus exposition.
type DurableStats struct {
	Enabled bool `json:"enabled"`
	// SnapshotRestored reports whether startup restored a window snapshot.
	SnapshotRestored bool `json:"snapshot_restored"`
	// Replayed / Skipped / CorruptRecords / TornSegments summarize the
	// startup WAL replay.
	Replayed       int `json:"wal_replayed"`
	Skipped        int `json:"wal_skipped"`
	CorruptRecords int `json:"wal_corrupt_records"`
	TornSegments   int `json:"wal_torn_segments"`
	// DecodeErrors counts CRC-valid records the codec rejected (version
	// skew) at replay.
	DecodeErrors int `json:"wal_decode_errors"`
	// LastSeq is the WAL's current last appended sequence number.
	LastSeq uint64 `json:"wal_last_seq"`
	// AppendErrors counts failed WAL appends since start.
	AppendErrors uint64 `json:"wal_append_errors"`
	// Snapshots counts successful durable snapshots since start;
	// SnapshotErrors counts failed attempts.
	Snapshots      uint64 `json:"snapshots"`
	SnapshotErrors uint64 `json:"snapshot_errors"`
	// SegmentsGCd counts WAL segments deleted by post-snapshot GC.
	SegmentsGCd uint64 `json:"wal_segments_gcd"`
	// Quarantines counts artifacts moved aside for failing verification.
	Quarantines uint64 `json:"quarantines"`
	// StaleTemps counts orphaned temp files swept at startup.
	StaleTemps int `json:"stale_temps_removed"`
	// WindowFlushes counts periodic FlushWindow flushes; FlushErrors
	// counts failed ones (an empty window is not an error).
	WindowFlushes uint64 `json:"window_flushes"`
	FlushErrors   uint64 `json:"flush_errors"`
}

// durableState is the manager's durability bookkeeping. The WAL handle
// is set once at construction; the stats are mutated from the collector
// tick and read from the metrics path, so they live under their own
// mutex.
type durableState struct {
	wal *durable.WAL

	mu          sync.Mutex
	stats       DurableStats
	ticks       uint64 // collector ticks since start (snapshot cadence)
	snapshotSeq uint64 // WAL floor covered by the latest durable snapshot
}

// recoverDurable climbs the recovery ladder. Called from New before the
// manager is shared; errors degrade state, never fail construction.
func (m *Manager) recoverDurable() {
	dir := m.opts.DurableDir
	if dir == "" {
		return
	}
	walDir := filepath.Join(dir, walSubdir)
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		m.trace("durable dir unavailable, running volatile", "dir", dir, "err", err.Error())
		return
	}
	m.dur.stats.Enabled = true
	m.dur.stats.StaleTemps = durable.RemoveStaleTemps(dir) + durable.RemoveStaleTemps(walDir)

	// Rung 1: restore the window snapshot, quarantining on any failure.
	var floor uint64
	snapPath := filepath.Join(dir, snapshotFile)
	if recs, err := durable.ReadContainer(snapPath, snapshotKind); err == nil && len(recs) >= 1 {
		var meta snapshotMeta
		if jerr := json.Unmarshal(recs[0], &meta); jerr == nil {
			floor = meta.LastSeq
			m.drift.restore(meta.Drift)
			m.processed.Store(meta.Processed)
			for _, rec := range recs[1:] {
				o, derr := decodeOutcome(rec, m.limits)
				if derr != nil {
					m.dur.stats.DecodeErrors++
					continue
				}
				m.window.Add(o)
			}
			m.dur.stats.SnapshotRestored = true
		} else {
			m.quarantine(snapPath)
		}
	} else if err != nil && !os.IsNotExist(err) {
		m.quarantine(snapPath)
	}
	m.dur.snapshotSeq = floor

	// Rung 2: replay the feedback WAL above the snapshot's floor.
	stats, err := durable.ReplayWAL(walDir, floor, func(seq uint64, payload []byte) error {
		o, derr := decodeOutcome(payload, m.limits)
		if derr != nil {
			m.dur.stats.DecodeErrors++
			return nil
		}
		m.window.Add(o)
		m.drift.Observe(o.Model, o.Key, o.Gap)
		m.processed.Add(1)
		return nil
	})
	if err != nil {
		m.trace("wal replay failed", "dir", walDir, "err", err.Error())
	}
	m.dur.stats.Replayed = stats.Replayed
	m.dur.stats.Skipped = stats.Skipped
	m.dur.stats.CorruptRecords = stats.Corrupt
	m.dur.stats.TornSegments = stats.Torn

	// Rung 3: open a fresh WAL segment for new appends.
	w, err := durable.OpenWAL(durable.WALOptions{
		Dir:    walDir,
		Target: "wal",
		Kill:   m.opts.Kill,
	})
	if err != nil {
		m.trace("wal open failed, running volatile", "dir", walDir, "err", err.Error())
		m.dur.stats.Enabled = false
		return
	}
	m.dur.wal = w
	m.dur.stats.LastSeq = w.LastSeq()
	if m.window.Len() > 0 {
		m.refreshResiduals()
	}
	m.trace("durable state recovered",
		"snapshot", m.dur.stats.SnapshotRestored,
		"replayed", stats.Replayed, "corrupt", stats.Corrupt, "torn", stats.Torn,
		"window", m.window.Len())
}

func (m *Manager) quarantine(path string) {
	if to, err := durable.QuarantineFile(path); err == nil {
		m.dur.mu.Lock()
		m.dur.stats.Quarantines++
		m.dur.mu.Unlock()
		m.trace("artifact quarantined", "from", path, "to", to)
	}
}

// journal appends one collected outcome to the feedback WAL (collector
// tick only). Failures are counted, never fatal: the journal is a
// durability upgrade, not a serve-path dependency.
func (m *Manager) journal(o Outcome) {
	if m.dur.wal == nil {
		return
	}
	seq, err := m.dur.wal.Append(encodeOutcome(o, m.limits))
	m.dur.mu.Lock()
	defer m.dur.mu.Unlock()
	if err != nil {
		m.dur.stats.AppendErrors++
		return
	}
	m.dur.stats.LastSeq = seq
}

// sealBatch syncs the WAL at a tick boundary and takes the periodic
// durable snapshot when the cadence comes due.
func (m *Manager) sealBatch(appended int) {
	if m.dur.wal == nil {
		return
	}
	if appended > 0 {
		m.dur.wal.Sync()
	}
	m.dur.mu.Lock()
	m.dur.ticks++
	due := m.opts.SnapshotTicks > 0 && m.dur.ticks%uint64(m.opts.SnapshotTicks) == 0
	m.dur.mu.Unlock()
	if due {
		m.snapshotDurable()
	}
}

// snapshotDurable persists the window and drift state as one sealed
// container, then GCs WAL segments the snapshot fully covers. Crash
// safety comes from the container's atomic write: a kill mid-snapshot
// leaves the previous snapshot untouched and the WAL intact, so the
// ladder recovers the identical state.
func (m *Manager) snapshotDurable() error {
	if m.dur.wal == nil {
		return fmt.Errorf("online: durability disabled")
	}
	// Floor before window: an outcome is window.Add'ed before it is
	// journaled, so every record at or below this floor is already in the
	// snapshot we are about to take — replay can never lose an outcome.
	// (A concurrent tick can at worst duplicate one post-floor outcome.)
	lastSeq := m.dur.wal.LastSeq()
	outs := m.window.Snapshot()
	meta := snapshotMeta{
		LastSeq:   lastSeq,
		Drift:     m.drift.state(),
		Processed: m.processed.Load(),
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		m.snapshotFailed()
		return err
	}
	recs := make([][]byte, 0, len(outs)+1)
	recs = append(recs, metaJSON)
	for _, o := range outs {
		recs = append(recs, encodeOutcome(o, m.limits))
	}
	path := filepath.Join(m.opts.DurableDir, snapshotFile)
	if err := durable.WriteContainer(path, snapshotKind, recs, "snapshot", m.opts.Kill); err != nil {
		m.snapshotFailed()
		return err
	}
	removed, _ := m.dur.wal.TruncateThrough(lastSeq)
	m.dur.mu.Lock()
	m.dur.stats.Snapshots++
	m.dur.snapshotSeq = lastSeq
	m.dur.stats.SegmentsGCd += uint64(removed)
	m.dur.mu.Unlock()
	return nil
}

func (m *Manager) snapshotFailed() {
	m.dur.mu.Lock()
	m.dur.stats.SnapshotErrors++
	m.dur.mu.Unlock()
}

// SnapshotNow forces a durable snapshot outside the tick cadence
// (operator surface and tests).
func (m *Manager) SnapshotNow() error {
	return m.snapshotDurable()
}

// DurableStats returns the current durability picture.
func (m *Manager) DurableStats() DurableStats {
	m.dur.mu.Lock()
	s := m.dur.stats
	m.dur.mu.Unlock()
	if m.dur.wal != nil {
		s.LastSeq = m.dur.wal.LastSeq()
	}
	return s
}

// Close takes a final durable snapshot and closes the WAL — the clean
// half of crash-only shutdown (the dirty half is just dying; the ladder
// covers it). Stop the collector first.
func (m *Manager) Close() error {
	m.Stop()
	if m.dur.wal == nil {
		return nil
	}
	var errSnap error
	if m.window.Len() > 0 {
		errSnap = m.snapshotDurable()
	}
	if err := m.dur.wal.Close(); err != nil && errSnap == nil {
		errSnap = err
	}
	return errSnap
}

// FlushWindow persists the feedback window to path as a training
// database, one sample per outcome with its exhaustive best M as the
// target — the same store format hmtrain writes. An empty window is a
// no-op.
func (m *Manager) FlushWindow(path string) error {
	outs := m.window.Snapshot()
	if len(outs) == 0 {
		return nil
	}
	err := windowDB(m.opts.Pair, m.opts.Objective, outs).SaveFile(path, m.opts.Kill)
	m.dur.mu.Lock()
	if err != nil {
		m.dur.stats.FlushErrors++
	} else {
		m.dur.stats.WindowFlushes++
	}
	m.dur.mu.Unlock()
	return err
}
