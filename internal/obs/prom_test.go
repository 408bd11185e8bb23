package obs

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram()
	if q := BucketQuantile(0.5, h.Buckets()); q != 0 {
		t.Fatalf("empty histogram quantile = %g", q)
	}
	// 90 fast observations, 10 slow: p50 must land in the fast bucket's
	// range, p99 in the slow one's.
	for i := 0; i < 90; i++ {
		h.Observe(20 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(80 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	p50 := BucketQuantile(0.50, h.Buckets())
	if p50 <= 0 || p50 > 25e-6 {
		t.Fatalf("p50 = %g, want in (0, 25µs]", p50)
	}
	p99 := BucketQuantile(0.99, h.Buckets())
	if p99 < 0.05 || p99 > 0.1 {
		t.Fatalf("p99 = %g, want in [50ms, 100ms]", p99)
	}
}

// A scrape's _count is its own +Inf bucket, even while observations land
// between the bucket reads.
func TestHistogramCountMatchesInfBucketUnderObserve(t *testing.T) {
	h := NewHistogram()
	stop := make(chan struct{})
	var started, done sync.WaitGroup
	for g := 0; g < 2; g++ {
		started.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			h.Observe(time.Millisecond)
			started.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(time.Duration(g+1) * time.Millisecond)
				}
			}
		}()
	}
	defer func() { close(stop); done.Wait() }()
	started.Wait()
	for i := 0; i < 2000; i++ {
		f := Family{Name: "x_seconds"}
		f.Histogram(h)
		var inf, count float64
		for _, s := range f.Samples {
			switch {
			case s.Name == "x_seconds_count":
				count = s.Value
			case s.Name == "x_seconds_bucket" && s.Labels[0].Value == "+Inf":
				inf = s.Value
			}
		}
		if count != inf {
			t.Fatalf("scrape %d: _count %v, le=\"+Inf\" bucket %v", i, count, inf)
		}
	}
}

// Label values are escaped by the three text-format rules only, so a
// tab or a control byte is written raw, and ParseText gives back every
// byte WriteText was handed.
func TestWriteParseRoundTrip(t *testing.T) {
	nasty := "na\"ughty\\mo\ndel\twith\x01{brace},comma \\t"
	c := Family{Name: "x_total", Help: "a counter", Type: "counter"}
	c.Int(3, Label{"model", nasty}, Label{"le", "+Inf"})
	c.Float(0.25)
	h := Family{Name: "x_seconds", Help: "a histogram", Type: "histogram"}
	hist := NewHistogram()
	hist.ObserveTraced(3*time.Millisecond, "trace-1")
	h.Histogram(hist, Label{"model", nasty})
	want := []Family{c, h}

	var sb strings.Builder
	if err := WriteText(&sb, want); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if esc := `model="na\"ughty\\mo\ndel` + "\twith\x01{brace},comma \\\\t\""; !strings.Contains(text, esc) {
		t.Fatalf("label not escaped by the three rules; want %q in:\n%s", esc, text)
	}
	got, err := ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	// The exemplar is its own untyped family to the parser.
	exemplar := h.Samples[len(h.Samples)-1]
	h.Samples = h.Samples[:len(h.Samples)-1]
	want = []Family{c, h, {Name: "x_seconds_exemplar", Samples: []Sample{exemplar}}}
	for i := range want {
		for j := range want[i].Samples {
			want[i].Samples[j].Int = false // the parser does not know how a value was printed
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the page:\n got %+v\nwant %+v", got, want)
	}
}

// ParseText skips what it cannot read and keeps the rest; its error
// names the first problem, including a family declared twice.
func TestParseTextReportsBadLines(t *testing.T) {
	for _, tc := range []struct{ page, err string }{
		{"# TYPE a counter\na 1\n# TYPE a counter\n", "second TYPE line for a"},
		{"# HELP a one\n# HELP a two\na 1\n", "second HELP line for a"},
		{"a{l=\"v} 1\na 1\n", "unterminated label value"},
		{"a{l=v} 1\na 1\n", "bad label"},
		{"a{l=\"v\" m=\"w\"} 1\na 1\n", "bad label separator"},
		{"a{l=\"v\"}1\na 1\n", "want a space"},
		{"a one\na 1\n", "invalid syntax"},
		{"a 1 2 3\na 1\n", "want a space"},
	} {
		fams, err := ParseText(tc.page)
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%q: error %v, want one containing %q", tc.page, err, tc.err)
		}
		if len(fams) != 1 || fams[0].Name != "a" || fams[0].Samples[len(fams[0].Samples)-1].Value != 1 {
			t.Errorf("%q: good lines lost: %+v", tc.page, fams)
		}
	}
	fams, err := ParseText("# a plain comment\n\nb{l=\"v\\q\",} 2 1700000000\n")
	if err != nil || len(fams) != 1 || fams[0].Samples[0].Label("l") != `v\q` || fams[0].Samples[0].Value != 2 {
		t.Fatalf("comment, blank line, unknown escape, trailing comma or timestamp misread: %+v, %v", fams, err)
	}
}
