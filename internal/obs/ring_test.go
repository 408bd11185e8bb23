package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestRingConcurrent hammers the ring from concurrent producers while
// readers snapshot — run under -race this is the satellite's ring
// safety test.
func TestRingConcurrent(t *testing.T) {
	tr := NewTracer(Options{RingSize: 64, SampleRate: 1})
	var wg sync.WaitGroup
	const producers, perProducer = 8, 200
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				ctx, trace := tr.StartTrace(context.Background(), "t")
				trace.SetAttr("model", fmt.Sprintf("m%d", p))
				_, sp := StartSpan(ctx, "stage")
				sp.End()
				if i%3 == 0 {
					trace.Keep(FlagFallback)
				}
				trace.Finish()
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
			recs := tr.Ring().Snapshot(TraceFilter{Limit: 16})
			for _, r := range recs {
				if r.ID == "" || len(r.Spans) == 0 {
					t.Errorf("torn record: %+v", r)
				}
			}
		}
	}
	stats := tr.Ring().Stats()
	if stats.Finished != producers*perProducer {
		t.Fatalf("finished %d, want %d", stats.Finished, producers*perProducer)
	}
	if stats.Buffered != 64 {
		t.Fatalf("buffered %d, want ring size 64", stats.Buffered)
	}
	if got := len(tr.Ring().Snapshot(TraceFilter{})); got != 64 {
		t.Fatalf("snapshot returned %d records, want 64", got)
	}
}

// TestConcurrentSpansOnOneTrace models hedged dispatch: several
// goroutines open, annotate and close spans on the same trace while
// another finishes it. Spans ended after Finish must be dropped, not
// race.
func TestConcurrentSpansOnOneTrace(t *testing.T) {
	tr := NewTracer(Options{SampleRate: 1})
	for iter := 0; iter < 50; iter++ {
		ctx, trace := tr.StartTrace(context.Background(), "predict")
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				_, sp := StartSpan(ctx, fmt.Sprintf("worker%d", g))
				sp.SetAttr("g", fmt.Sprint(g))
				if g%2 == 0 {
					sp.End()
				} else {
					sp.Cancel()
				}
				// Late span racing Finish: either attached or dropped,
				// never a panic or a torn record.
				NewSpan(ctx, "late").End()
				AddSpan(ctx, "added", time.Now(), time.Microsecond)
			}(g)
		}
		trace.Finish()
		wg.Wait()
	}
	recs := tr.Ring().Snapshot(TraceFilter{})
	if len(recs) != 50 {
		t.Fatalf("retained %d traces, want 50", len(recs))
	}
	for _, r := range recs {
		for _, s := range r.Spans {
			if s.Outcome == "" {
				t.Fatalf("span %q recorded without outcome", s.Name)
			}
		}
	}
}

// TestProvStoreConcurrent exercises Add/Get under contention. A record
// reads back right after its Add. Under contention the store is a
// bounded FIFO that the other seven writers may cycle between a
// goroutine's Add and its Get, so there Get returns at most its own
// record; once the writers finish, every retained id reads back exactly
// its own record.
func TestProvStoreConcurrent(t *testing.T) {
	s := NewProvStore(128)
	s.Add(Provenance{TraceID: "t-first", Model: "tree"})
	if got := s.Get("t-first"); len(got) != 1 || got[0].TraceID != "t-first" || got[0].Model != "tree" {
		t.Fatalf("Get(t-first) right after Add = %+v, want its one record", got)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("t-%d-%d", g, i)
				s.Add(Provenance{TraceID: id, Model: "tree"})
				got := s.Get(id)
				if len(got) > 1 || (len(got) == 1 && (got[0].TraceID != id || got[0].Model != "tree")) {
					t.Errorf("Get(%s) = %+v, want at most its own record", id, got)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 128 {
		t.Fatalf("store holds %d, want cap 128", s.Len())
	}
	retained := 0
	for g := 0; g < 8; g++ {
		for i := 0; i < 100; i++ {
			id := fmt.Sprintf("t-%d-%d", g, i)
			got := s.Get(id)
			if len(got) == 0 {
				continue
			}
			retained++
			if len(got) != 1 || got[0].TraceID != id || got[0].Model != "tree" {
				t.Errorf("Get(%s) = %+v, want its one record", id, got)
			}
		}
	}
	if retained != 128 {
		t.Fatalf("%d ids read back, want the 128 retained", retained)
	}
}
