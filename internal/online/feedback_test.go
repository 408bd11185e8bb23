package online

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/train"
)

// vecForShard builds distinct valid vectors by varying I features.
func vecForShard(i int) feature.Vector {
	rng := rand.New(rand.NewSource(int64(i)))
	return feature.Combine(train.RandomB(rng), train.RandomI(rng))
}

func TestIngestRingBoundsAndDrops(t *testing.T) {
	r := newIngestRing(16, 4) // 4 per shard
	// Saturate one shard far past capacity.
	f := vecForShard(1)
	for i := 0; i < 10; i++ {
		r.Add(Sample{Key: fmt.Sprint(i), Features: f})
	}
	if got := r.Pending(); got != 4 {
		t.Fatalf("pending = %d, want shard capacity 4", got)
	}
	if got := r.Drops(); got != 6 {
		t.Fatalf("drops = %d, want 6", got)
	}
	// The survivors are the newest four, drained oldest-first.
	batch := r.Drain(100)
	if len(batch) != 4 {
		t.Fatalf("drained %d, want 4", len(batch))
	}
	for i, s := range batch {
		if want := fmt.Sprint(6 + i); s.Key != want {
			t.Fatalf("drained[%d].Key = %s, want %s (overwrite-oldest order)", i, s.Key, want)
		}
	}
	if r.Pending() != 0 {
		t.Fatal("ring not empty after full drain")
	}
}

func TestIngestDrainRespectsMax(t *testing.T) {
	r := newIngestRing(64, 4)
	for i := 0; i < 20; i++ {
		r.Add(Sample{Key: fmt.Sprint(i), Features: vecForShard(i)})
	}
	if got := len(r.Drain(7)); got != 7 {
		t.Fatalf("Drain(7) returned %d", got)
	}
	if got := r.Pending(); got != 13 {
		t.Fatalf("pending after partial drain = %d, want 13", got)
	}
}

func TestWindowEvictsOldest(t *testing.T) {
	w := NewWindow(3)
	for i := 0; i < 5; i++ {
		w.Add(Outcome{Sample: Sample{Key: fmt.Sprint(i)}})
	}
	if w.Len() != 3 || w.Total() != 5 {
		t.Fatalf("len=%d total=%d, want 3/5", w.Len(), w.Total())
	}
	snap := w.Snapshot()
	for i, o := range snap {
		if want := fmt.Sprint(2 + i); o.Key != want {
			t.Fatalf("snapshot[%d] = %s, want %s (oldest-first of the newest 3)", i, o.Key, want)
		}
	}
}

// TestFlushWindowRoundTrip: the feedback window persists in the offline
// store format and loads back through the same LoadDB path /v1/reload
// uses — online feedback and hmtrain output are interchangeable.
func TestFlushWindowRoundTrip(t *testing.T) {
	pair := machine.PrimaryPair()
	m := New(Options{Pair: pair, Model: "tree"})
	for i := 0; i < 5; i++ {
		m.Observe(Sample{Key: vecForShard(i).Key(), Features: vecForShard(i), M: m.probeSet[0], Model: "tree", Predictor: "DTree"})
	}
	if got := m.Tick(); got != 5 {
		t.Fatalf("tick processed %d, want 5", got)
	}
	path := filepath.Join(t.TempDir(), "window.hmdb")
	if err := m.FlushWindow(path); err != nil {
		t.Fatal(err)
	}
	db, err := train.LoadDBFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Samples) != 5 {
		t.Fatalf("loaded %d samples, want 5", len(db.Samples))
	}
	// Each persisted target must decode to the recorded exhaustive best.
	outs := m.FeedbackWindow().Snapshot()
	limits := pair.Limits()
	for i, o := range outs {
		if got := db.Samples[i].Target; got != o.BestM.Normalize(limits) {
			t.Fatalf("sample %d target does not round-trip the best M", i)
		}
	}

	// An empty window writes nothing.
	emptyPath := filepath.Join(t.TempDir(), "empty.hmdb")
	if err := New(Options{Pair: pair}).FlushWindow(emptyPath); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(emptyPath); !os.IsNotExist(err) {
		t.Fatalf("empty window flush left a file: %v", err)
	}
}
