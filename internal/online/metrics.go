package online

import (
	"fmt"
	"io"
	"sort"
	"strings"
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

// WritePrometheus appends the online-learning exposition. The serving
// layer calls it after the core exposition (whose byte-exact golden
// test must keep passing), so every metric here is additive.
func (m *Manager) WritePrometheus(w io.Writer) {
	s := m.Snapshot()
	fmt.Fprintf(w, "# HELP heteromap_online_ingested_total Feedback samples enqueued by the serve path.\n")
	fmt.Fprintf(w, "# TYPE heteromap_online_ingested_total counter\n")
	fmt.Fprintf(w, "heteromap_online_ingested_total %d\n", s.Ingested)
	fmt.Fprintf(w, "# HELP heteromap_online_dropped_total Feedback samples overwritten before collection.\n")
	fmt.Fprintf(w, "# TYPE heteromap_online_dropped_total counter\n")
	fmt.Fprintf(w, "heteromap_online_dropped_total %d\n", s.Dropped)
	fmt.Fprintf(w, "# HELP heteromap_online_processed_total Feedback samples realized into outcomes.\n")
	fmt.Fprintf(w, "# TYPE heteromap_online_processed_total counter\n")
	fmt.Fprintf(w, "heteromap_online_processed_total %d\n", s.Processed)
	fmt.Fprintf(w, "# HELP heteromap_online_window_size Outcomes in the sliding feedback window.\n")
	fmt.Fprintf(w, "# TYPE heteromap_online_window_size gauge\n")
	fmt.Fprintf(w, "heteromap_online_window_size %d\n", s.WindowSize)
	fmt.Fprintf(w, "# HELP heteromap_online_probes_total Low-confidence requests re-derived by exhaustive probe.\n")
	fmt.Fprintf(w, "# TYPE heteromap_online_probes_total counter\n")
	fmt.Fprintf(w, "heteromap_online_probes_total %d\n", s.Probes)
	fmt.Fprintf(w, "# HELP heteromap_drift_ewma Smoothed realized-vs-best cost gap per model family.\n")
	fmt.Fprintf(w, "# TYPE heteromap_drift_ewma gauge\n")
	for _, f := range s.Families {
		fmt.Fprintf(w, "heteromap_drift_ewma{model=\"%s\"} %g\n", escapeLabel(f.Model), f.EWMA)
	}
	fmt.Fprintf(w, "# HELP heteromap_drift_active Whether a family's drift signal is armed.\n")
	fmt.Fprintf(w, "# TYPE heteromap_drift_active gauge\n")
	for _, f := range s.Families {
		active := 0
		if f.Drifting {
			active = 1
		}
		fmt.Fprintf(w, "heteromap_drift_active{model=\"%s\"} %d\n", escapeLabel(f.Model), active)
	}
	fmt.Fprintf(w, "# HELP heteromap_drift_signals_total Rising edges of the drift signal per family.\n")
	fmt.Fprintf(w, "# TYPE heteromap_drift_signals_total counter\n")
	for _, f := range s.Families {
		fmt.Fprintf(w, "heteromap_drift_signals_total{model=\"%s\"} %d\n", escapeLabel(f.Model), f.Signals)
	}
	fmt.Fprintf(w, "# HELP heteromap_drift_cells Distinct discretized feature cells observed.\n")
	fmt.Fprintf(w, "# TYPE heteromap_drift_cells gauge\n")
	fmt.Fprintf(w, "heteromap_drift_cells %d\n", s.DriftCells)
	fmt.Fprintf(w, "# HELP heteromap_shadow_retrains_total Shadow retraining attempts.\n")
	fmt.Fprintf(w, "# TYPE heteromap_shadow_retrains_total counter\n")
	fmt.Fprintf(w, "heteromap_shadow_retrains_total %d\n", s.Retrains)
	fmt.Fprintf(w, "# HELP heteromap_shadow_promotions_total Shadow models canary-promoted into the registry.\n")
	fmt.Fprintf(w, "# TYPE heteromap_shadow_promotions_total counter\n")
	fmt.Fprintf(w, "heteromap_shadow_promotions_total %d\n", s.Promotions)
	fmt.Fprintf(w, "# HELP heteromap_shadow_rejections_total Shadow retrains rejected before serving.\n")
	fmt.Fprintf(w, "# TYPE heteromap_shadow_rejections_total counter\n")
	fmt.Fprintf(w, "heteromap_shadow_rejections_total %d\n", s.Rejections)
	if s.Last != nil {
		fmt.Fprintf(w, "# HELP heteromap_shadow_last_gap Holdout-replay mean gap of the last retrain, per side.\n")
		fmt.Fprintf(w, "# TYPE heteromap_shadow_last_gap gauge\n")
		fmt.Fprintf(w, "heteromap_shadow_last_gap{side=\"candidate\"} %g\n", s.Last.CandidateGap)
		fmt.Fprintf(w, "heteromap_shadow_last_gap{side=\"live\"} %g\n", s.Last.LiveGap)
	}
	if s.Durable != nil {
		d := s.Durable
		fmt.Fprintf(w, "# HELP heteromap_durable_wal_last_seq Last appended feedback-WAL sequence number.\n")
		fmt.Fprintf(w, "# TYPE heteromap_durable_wal_last_seq gauge\n")
		fmt.Fprintf(w, "heteromap_durable_wal_last_seq %d\n", d.LastSeq)
		fmt.Fprintf(w, "# HELP heteromap_durable_wal_replayed_total Outcomes replayed from the WAL at last startup.\n")
		fmt.Fprintf(w, "# TYPE heteromap_durable_wal_replayed_total gauge\n")
		fmt.Fprintf(w, "heteromap_durable_wal_replayed_total %d\n", d.Replayed)
		fmt.Fprintf(w, "# HELP heteromap_durable_wal_corrupt_total WAL records skipped for checksum mismatch at last startup.\n")
		fmt.Fprintf(w, "# TYPE heteromap_durable_wal_corrupt_total gauge\n")
		fmt.Fprintf(w, "heteromap_durable_wal_corrupt_total %d\n", d.CorruptRecords)
		fmt.Fprintf(w, "# HELP heteromap_durable_wal_torn_segments WAL segments abandoned at a torn tail at last startup.\n")
		fmt.Fprintf(w, "# TYPE heteromap_durable_wal_torn_segments gauge\n")
		fmt.Fprintf(w, "heteromap_durable_wal_torn_segments %d\n", d.TornSegments)
		fmt.Fprintf(w, "# HELP heteromap_durable_snapshots_total Durable window snapshots taken since start.\n")
		fmt.Fprintf(w, "# TYPE heteromap_durable_snapshots_total counter\n")
		fmt.Fprintf(w, "heteromap_durable_snapshots_total %d\n", d.Snapshots)
		fmt.Fprintf(w, "# HELP heteromap_durable_snapshot_errors_total Failed durable snapshot attempts.\n")
		fmt.Fprintf(w, "# TYPE heteromap_durable_snapshot_errors_total counter\n")
		fmt.Fprintf(w, "heteromap_durable_snapshot_errors_total %d\n", d.SnapshotErrors)
		fmt.Fprintf(w, "# HELP heteromap_durable_quarantines_total Artifacts quarantined for failing integrity verification.\n")
		fmt.Fprintf(w, "# TYPE heteromap_durable_quarantines_total counter\n")
		fmt.Fprintf(w, "heteromap_durable_quarantines_total %d\n", d.Quarantines)
		restored := 0
		if d.SnapshotRestored {
			restored = 1
		}
		fmt.Fprintf(w, "# HELP heteromap_durable_snapshot_restored Whether the last startup restored a window snapshot.\n")
		fmt.Fprintf(w, "# TYPE heteromap_durable_snapshot_restored gauge\n")
		fmt.Fprintf(w, "heteromap_durable_snapshot_restored %d\n", restored)
		fmt.Fprintf(w, "# HELP heteromap_durable_window_flushes_total Periodic feedback-window flushes to disk.\n")
		fmt.Fprintf(w, "# TYPE heteromap_durable_window_flushes_total counter\n")
		fmt.Fprintf(w, "heteromap_durable_window_flushes_total %d\n", d.WindowFlushes)
	}
}

// escapeLabel makes a string safe inside a Prometheus label value.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return s
}
