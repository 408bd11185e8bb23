package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one benchmark-recorded interval around a call into a layer.
// Times are nanoseconds since the tracer started; Parent 0 is the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// It is used from one goroutine; concurrent phases collect their spans
// locally and hand them over with add.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.t0)) }

// open starts a span and returns its id.
func (t *tracer) open(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.at(time.Now())})
	return len(t.spans)
}

// close ends span id and returns its duration.
func (t *tracer) close(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = t.at(time.Now())
	return time.Duration(s.End - s.Start)
}

// add adopts spans recorded elsewhere, assigning their ids.
func (t *tracer) add(spans []span) {
	for _, s := range spans {
		s.ID = len(t.spans) + 1
		t.spans = append(t.spans, s)
	}
}

// computeSelf sets every span's self time: its duration minus the part
// of its interval that its children cover.
func (t *tracer) computeSelf() {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
