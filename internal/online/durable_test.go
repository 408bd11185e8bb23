package online

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"heteromap/internal/durable"
	"heteromap/internal/machine"
	"heteromap/internal/train"
)

func newDurableManager(t *testing.T, dir string, kill durable.KillFunc) *Manager {
	t.Helper()
	return New(Options{
		Pair:           machine.PrimaryPair(),
		Model:          "tree",
		DriftAlpha:     0.5,
		DriftThreshold: 0.25,
		DriftWindow:    4,
		DurableDir:     dir,
		SnapshotTicks:  1 << 30, // snapshots only when a test asks
		Kill:           kill,
	})
}

func TestOutcomeCodecRoundTrip(t *testing.T) {
	m := newTestManager(t)
	cells := badCells(t, m, 4)
	feedGPU(m, cells, "FixedChoice")
	m.Tick()
	for i, o := range m.FeedbackWindow().Snapshot() {
		enc := encodeOutcome(o, m.limits)
		got, err := decodeOutcome(enc, m.limits)
		if err != nil {
			t.Fatalf("outcome %d failed decode: %v", i, err)
		}
		if got.Key != o.Key || got.Model != o.Model || got.Predictor != o.Predictor ||
			got.Probed != o.Probed || got.Features != o.Features ||
			got.ChosenCost != o.ChosenCost || got.BestCost != o.BestCost || got.Gap != o.Gap {
			t.Fatalf("outcome %d fields changed across codec round trip", i)
		}
		if got.When.UnixNano() != o.When.UnixNano() {
			t.Fatalf("outcome %d timestamp changed across codec round trip", i)
		}
		// Configurations decode via FromNormalized, which clamps to the
		// pair limits — a projection. From the first round trip on the
		// record is a fixed point: snapshot -> replay -> snapshot cycles
		// never walk the bytes.
		enc2 := encodeOutcome(got, m.limits)
		got2, err := decodeOutcome(enc2, m.limits)
		if err != nil {
			t.Fatalf("outcome %d failed second decode: %v", i, err)
		}
		if !bytes.Equal(encodeOutcome(got2, m.limits), enc2) {
			t.Fatalf("outcome %d codec is not a projection: bytes still drifting", i)
		}
		// Structural damage is rejected.
		if _, err := decodeOutcome(enc[:len(enc)-1], m.limits); err == nil {
			t.Fatal("truncated outcome record accepted")
		}
		if _, err := decodeOutcome(append(append([]byte(nil), enc...), 0), m.limits); err == nil {
			t.Fatal("trailing garbage after outcome record accepted")
		}
	}
}

// TestCrashRecoveryReplaysWAL: a manager that dies without any shutdown
// courtesy — no snapshot, no Close — comes back with its window and
// drift state rebuilt record-for-record from the feedback WAL.
func TestCrashRecoveryReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	m := newDurableManager(t, dir, nil)
	cells := badCells(t, m, 12)
	feedGPU(m, cells, "FixedChoice")
	m.Tick()
	wantOuts := m.FeedbackWindow().Snapshot()
	wantDrift := m.drift.state()
	// Simulated kill -9: the manager is simply abandoned.

	m2 := newDurableManager(t, dir, nil)
	d := m2.DurableStats()
	if !d.Enabled {
		t.Fatal("durability not enabled on restart")
	}
	if d.Replayed != len(wantOuts) {
		t.Fatalf("replayed %d outcomes, want %d", d.Replayed, len(wantOuts))
	}
	if d.CorruptRecords != 0 || d.TornSegments != 0 || d.DecodeErrors != 0 {
		t.Fatalf("clean WAL reported damage: %+v", d)
	}
	gotOuts := m2.FeedbackWindow().Snapshot()
	if len(gotOuts) != len(wantOuts) {
		t.Fatalf("recovered window holds %d outcomes, want %d", len(gotOuts), len(wantOuts))
	}
	for i := range wantOuts {
		if gotOuts[i].Key != wantOuts[i].Key || gotOuts[i].Gap != wantOuts[i].Gap {
			t.Fatalf("outcome %d differs after recovery", i)
		}
	}
	if got := m2.drift.state(); !reflect.DeepEqual(got, wantDrift) {
		t.Fatalf("recovered drift state differs:\n got %+v\nwant %+v", got, wantDrift)
	}
	if m2.processed.Load() != m.processed.Load() {
		t.Fatalf("processed counter regressed: %d -> %d", m.processed.Load(), m2.processed.Load())
	}
}

// TestSnapshotRestoreAndWALGC: a durable snapshot covers the whole WAL
// (GCing sealed segments), and a restart restores from the snapshot
// with nothing left to replay — drift state identical either way.
func TestSnapshotRestoreAndWALGC(t *testing.T) {
	dir := t.TempDir()
	m := newDurableManager(t, dir, nil)
	cells := badCells(t, m, 10)
	feedGPU(m, cells, "FixedChoice")
	m.Tick()
	if err := m.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	wantDrift := m.drift.state()
	wantLen := m.FeedbackWindow().Len()

	m2 := newDurableManager(t, dir, nil)
	d := m2.DurableStats()
	if !d.SnapshotRestored {
		t.Fatal("restart did not restore the snapshot")
	}
	if d.Replayed != 0 {
		t.Fatalf("snapshot-covered WAL still replayed %d records", d.Replayed)
	}
	if m2.FeedbackWindow().Len() != wantLen {
		t.Fatalf("restored window holds %d outcomes, want %d", m2.FeedbackWindow().Len(), wantLen)
	}
	if got := m2.drift.state(); !reflect.DeepEqual(got, wantDrift) {
		t.Fatal("snapshot-restored drift state differs from pre-crash state")
	}

	// Feedback after the snapshot layers on through WAL replay.
	feedGPU(m2, cells[:3], "FixedChoice")
	m2.Tick()
	want2 := m2.drift.state()
	m3 := newDurableManager(t, dir, nil)
	if d3 := m3.DurableStats(); d3.Replayed != 3 {
		t.Fatalf("second restart replayed %d records, want 3", d3.Replayed)
	}
	if got := m3.drift.state(); !reflect.DeepEqual(got, want2) {
		t.Fatal("snapshot+replay drift state differs from pre-crash state")
	}
}

// TestSnapshotKillSweepAndQuarantine: a crash at any byte of the
// snapshot write leaves the previous snapshot byte-intact and the WAL
// whole, so recovery is lossless; a bit-rotted snapshot is quarantined,
// not served.
func TestSnapshotKillSweep(t *testing.T) {
	dir := t.TempDir()
	m := newDurableManager(t, dir, nil)
	cells := badCells(t, m, 6)
	feedGPU(m, cells, "FixedChoice")
	m.Tick()
	if err := m.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, snapshotFile)
	before, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(before))
	stride := int64(1)
	if testing.Short() {
		stride = 29
	}
	for off := int64(0); off <= size; off += stride {
		armed := off
		m.opts.Kill = func(target string) (int64, bool) {
			if target != "snapshot" {
				return 0, false
			}
			return armed, true
		}
		err := m.SnapshotNow()
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
	m.opts.Kill = nil

	// The committed snapshot restores cleanly despite all that abuse.
	m2 := newDurableManager(t, dir, nil)
	if !m2.DurableStats().SnapshotRestored {
		t.Fatal("snapshot failed to restore after kill sweep")
	}
	if m2.FeedbackWindow().Len() != m.FeedbackWindow().Len() {
		t.Fatal("window lost outcomes across kill sweep")
	}

	// Bit-rot the snapshot: restart quarantines it and falls down the
	// ladder instead of serving corrupt state.
	data, _ := os.ReadFile(snapPath)
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m3 := newDurableManager(t, dir, nil)
	d := m3.DurableStats()
	if d.SnapshotRestored {
		t.Fatal("corrupt snapshot restored as valid")
	}
	if d.Quarantines == 0 {
		t.Fatal("corrupt snapshot not quarantined")
	}
	if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
		t.Fatal("corrupt snapshot still at its serving path")
	}
}

// TestWALKillDuringTick: an injected crash inside a WAL append never
// breaks collection — the tick completes, the failure is counted, and
// a restart replays exactly the committed prefix.
func TestWALKillDuringTick(t *testing.T) {
	dir := t.TempDir()
	kill := func(target string) (int64, bool) {
		if target != "wal" {
			return 0, false
		}
		return 700, true // lands inside the second ~490-byte record
	}
	m := newDurableManager(t, dir, kill)
	cells := badCells(t, m, 8)
	feedGPU(m, cells, "FixedChoice")
	if got := m.Tick(); got != 8 {
		t.Fatalf("tick processed %d, want 8", got)
	}
	if m.FeedbackWindow().Len() != 8 {
		t.Fatal("WAL crash lost in-memory outcomes")
	}
	d := m.DurableStats()
	if d.AppendErrors == 0 {
		t.Fatal("killed appends not counted")
	}
	committed := 8 - int(d.AppendErrors)

	m2 := newDurableManager(t, dir, nil)
	d2 := m2.DurableStats()
	if d2.Replayed != committed {
		t.Fatalf("replayed %d records, want committed prefix of %d", d2.Replayed, committed)
	}
	if m2.FeedbackWindow().Len() != committed {
		t.Fatalf("recovered window holds %d, want %d", m2.FeedbackWindow().Len(), committed)
	}
}

// TestWindowAutoFlush: the background flush ticker persists the window
// without any explicit call.
func TestWindowAutoFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "window.hmdb")
	m := New(Options{
		Pair:             machine.PrimaryPair(),
		Model:            "tree",
		Interval:         5 * time.Millisecond,
		WindowFlushEvery: 10 * time.Millisecond,
		WindowFlushPath:  path,
	})
	cells := badCells(t, m, 4)
	feedGPU(m, cells, "FixedChoice")
	m.Start()
	defer m.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("auto-flush never wrote the window file")
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.Stop()
	db, err := train.LoadDBFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Samples) == 0 {
		t.Fatal("auto-flushed window is empty")
	}
}
