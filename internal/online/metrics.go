package online

import (
	"sort"

	"heteromap/internal/obs"
)

// Snapshot is the JSON view of the online learning loop served at
// /v1/online.
type Snapshot struct {
	Ingested   uint64           `json:"ingested"`
	Dropped    uint64           `json:"dropped"`
	Processed  uint64           `json:"processed"`
	Pending    int              `json:"pending"`
	WindowSize int              `json:"window_size"`
	Probes     uint64           `json:"probes"`
	Retrains   uint64           `json:"retrains"`
	Promotions uint64           `json:"promotions"`
	Rejections uint64           `json:"rejections"`
	DriftCells int              `json:"drift_cells"`
	Families   []familySnapshot `json:"families"`
	Last       *RetrainReport   `json:"last_retrain,omitempty"`
	Durable    *DurableStats    `json:"durable,omitempty"`
}

// Snapshot captures the loop's current state.
func (m *Manager) Snapshot() Snapshot {
	fams := m.drift.familySnapshots()
	sort.Slice(fams, func(i, j int) bool { return fams[i].Model < fams[j].Model })
	var dur *DurableStats
	if d := m.DurableStats(); d.Enabled {
		dur = &d
	}
	return Snapshot{
		Durable:    dur,
		Ingested:   m.ingested.Load(),
		Dropped:    m.ingest.Drops(),
		Processed:  m.processed.Load(),
		Pending:    m.ingest.Pending(),
		WindowSize: m.window.Len(),
		Probes:     m.probes.Load(),
		Retrains:   m.retrains.Load(),
		Promotions: m.promotions.Load(),
		Rejections: m.rejections.Load(),
		DriftCells: m.drift.Cells(),
		Families:   fams,
		Last:       m.LastReport(),
	}
}

// Families returns the online-learning families of /metrics. The
// serving layer appends them after its core families.
func (m *Manager) Families() []obs.Family {
	s := m.Snapshot()
	fams := []obs.Family{
		obs.Counter("heteromap_online_ingested_total", "Feedback samples enqueued by the serve path.", s.Ingested),
		obs.Counter("heteromap_online_dropped_total", "Feedback samples overwritten before collection.", s.Dropped),
		obs.Counter("heteromap_online_processed_total", "Feedback samples realized into outcomes.", s.Processed),
		obs.Gauge("heteromap_online_window_size", "Outcomes in the sliding feedback window.", int64(s.WindowSize)),
		obs.Counter("heteromap_online_probes_total", "Low-confidence requests re-derived by exhaustive probe.", s.Probes),
	}
	ewma := obs.Family{Name: "heteromap_drift_ewma", Help: "Smoothed realized-vs-best cost gap per model family.", Type: "gauge"}
	active := obs.Family{Name: "heteromap_drift_active", Help: "Whether a family's drift signal is armed.", Type: "gauge"}
	signals := obs.Family{Name: "heteromap_drift_signals_total", Help: "Rising edges of the drift signal per family.", Type: "counter"}
	for _, f := range s.Families {
		model := obs.Label{Name: "model", Value: f.Model}
		ewma.Float(f.EWMA, model)
		active.Bool(f.Drifting, model)
		signals.Int(int64(f.Signals), model)
	}
	fams = append(fams, ewma, active, signals,
		obs.Gauge("heteromap_drift_cells", "Distinct discretized feature cells observed.", int64(s.DriftCells)),
		obs.Counter("heteromap_shadow_retrains_total", "Shadow retraining attempts.", s.Retrains),
		obs.Counter("heteromap_shadow_promotions_total", "Shadow models canary-promoted into the registry.", s.Promotions),
		obs.Counter("heteromap_shadow_rejections_total", "Shadow retrains rejected before serving.", s.Rejections))
	if s.Last != nil {
		gap := obs.Family{Name: "heteromap_shadow_last_gap", Help: "Holdout-replay mean gap of the last retrain, per side.", Type: "gauge"}
		gap.Float(s.Last.CandidateGap, obs.Label{Name: "side", Value: "candidate"})
		gap.Float(s.Last.LiveGap, obs.Label{Name: "side", Value: "live"})
		fams = append(fams, gap)
	}
	if d := s.Durable; d != nil {
		restored := obs.Family{Name: "heteromap_durable_snapshot_restored", Help: "Whether the last startup restored a window snapshot.", Type: "gauge"}
		restored.Bool(d.SnapshotRestored)
		fams = append(fams,
			obs.Gauge("heteromap_durable_wal_last_seq", "Last appended feedback-WAL sequence number.", int64(d.LastSeq)),
			obs.Gauge("heteromap_durable_wal_replayed_total", "Outcomes replayed from the WAL at last startup.", int64(d.Replayed)),
			obs.Gauge("heteromap_durable_wal_corrupt_total", "WAL records skipped for checksum mismatch at last startup.", int64(d.CorruptRecords)),
			obs.Gauge("heteromap_durable_wal_torn_segments", "WAL segments abandoned at a torn tail at last startup.", int64(d.TornSegments)),
			obs.Counter("heteromap_durable_snapshots_total", "Durable window snapshots taken since start.", d.Snapshots),
			obs.Counter("heteromap_durable_snapshot_errors_total", "Failed durable snapshot attempts.", d.SnapshotErrors),
			obs.Counter("heteromap_durable_quarantines_total", "Artifacts quarantined for failing integrity verification.", d.Quarantines),
			restored,
			obs.Counter("heteromap_durable_window_flushes_total", "Periodic feedback-window flushes to disk.", d.WindowFlushes))
	}
	return fams
}
