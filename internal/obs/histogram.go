package obs

import (
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// latencyBuckets are the histogram upper bounds in seconds, log-spaced
// from 5µs to 1s — prediction inference sits in the tens of microseconds,
// HTTP framing and slow models push the tail into milliseconds.
var latencyBuckets = []float64{
	5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1,
}

// leText holds each bucket's le label value, +Inf last.
var leText = func() []string {
	out := make([]string, 0, len(latencyBuckets)+1)
	for _, ub := range latencyBuckets {
		out = append(out, strconv.FormatFloat(ub, 'g', -1, 64))
	}
	return append(out, "+Inf")
}()

// Histogram is a fixed-bucket latency histogram with atomic counters;
// the final implicit bucket is +Inf.
type Histogram struct {
	counts []atomic.Uint64 // len(latencyBuckets)+1
	sumNS  atomic.Uint64

	// exemplar remembers the most recent traced observation, linking the
	// histogram to a concrete trace in /debug/traces.
	exemplar atomic.Pointer[histExemplar]
}

type histExemplar struct {
	traceID string
	seconds float64
}

// NewHistogram builds an empty histogram over latencyBuckets.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, len(latencyBuckets)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	sec := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, sec)
	h.counts[i].Add(1)
	h.sumNS.Add(uint64(d.Nanoseconds()))
}

// ObserveTraced records one duration and, when the observation came from
// a traced request, remembers its trace id as the histogram's exemplar.
func (h *Histogram) ObserveTraced(d time.Duration, traceID string) {
	h.Observe(d)
	if traceID != "" {
		h.exemplar.Store(&histExemplar{traceID: traceID, seconds: d.Seconds()})
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the total observed duration across all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNS.Load()) }

// Buckets returns the cumulative bucket counts in ascending bound order,
// +Inf last.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = Bucket{LE: math.Inf(1), Count: float64(cum)}
		if i < len(latencyBuckets) {
			out[i].LE = latencyBuckets[i]
		}
	}
	return out
}

// Histogram appends h's cumulative buckets, sum and count under the
// given labels; the count is the +Inf bucket of the same read, so the two
// always agree. When h holds an exemplar, an untyped <name>_exemplar
// series with a trace_id label follows, because text format 0.0.4 has
// no exemplar syntax.
func (f *Family) Histogram(h *Histogram, labels ...Label) {
	with := func(l Label) []Label { return append(labels[:len(labels):len(labels)], l) }
	bucket := f.Name + "_bucket"
	buckets := h.Buckets()
	for i, b := range buckets {
		f.Samples = append(f.Samples, Sample{Name: bucket, Labels: with(Label{"le", leText[i]}), Value: b.Count, Int: true})
	}
	f.Samples = append(f.Samples,
		Sample{Name: f.Name + "_sum", Labels: labels, Value: float64(h.sumNS.Load()) / 1e9},
		Sample{Name: f.Name + "_count", Labels: labels, Value: buckets[len(buckets)-1].Count, Int: true})
	if ex := h.exemplar.Load(); ex != nil {
		f.Samples = append(f.Samples, Sample{Name: f.Name + "_exemplar", Labels: with(Label{"trace_id", ex.traceID}), Value: ex.seconds})
	}
}
