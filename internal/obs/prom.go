package obs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file is the one Prometheus text-format (0.0.4) codec of the
// repository: every /metrics page is a list of families written by
// WriteText, and every page read back — federation, the load
// generator, tests — is read by ParseText.

// Label is one name="value" pair of a series.
type Label struct{ Name, Value string }

// Sample is one series line: its name (the family name, or the family
// name plus _bucket, _sum, _count or _exemplar), labels and value.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
	// Int prints Value as an integer (%d); otherwise it prints as %g.
	// Integers are exact up to 2^53, the precision Prometheus stores.
	Int bool
}

// Label returns the value of the named label ("" when absent).
func (s Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// Family is one metric family: a HELP line (omitted when Help is
// empty), a TYPE line and its samples.
type Family struct {
	Name string
	Help string
	// Type is counter, gauge, histogram or untyped; ParseText leaves it
	// empty for a family the page never declared.
	Type    string
	Samples []Sample
}

// Counter is a family holding one unlabeled counter.
func Counter(name, help string, v uint64) Family {
	return Family{Name: name, Help: help, Type: "counter", Samples: []Sample{{Name: name, Value: float64(v), Int: true}}}
}

// Gauge is a family holding one unlabeled integer gauge.
func Gauge(name, help string, v int64) Family {
	return Family{Name: name, Help: help, Type: "gauge", Samples: []Sample{{Name: name, Value: float64(v), Int: true}}}
}

// Int appends an integer sample named after the family.
func (f *Family) Int(v int64, labels ...Label) {
	f.Samples = append(f.Samples, Sample{Name: f.Name, Labels: labels, Value: float64(v), Int: true})
}

// Float appends a sample named after the family.
func (f *Family) Float(v float64, labels ...Label) {
	f.Samples = append(f.Samples, Sample{Name: f.Name, Labels: labels, Value: v})
}

// Bool appends a 1 (true) or 0 (false) sample named after the family.
func (f *Family) Bool(v bool, labels ...Label) {
	var i int64
	if v {
		i = 1
	}
	f.Int(i, labels...)
}

// Buckets returns, from a parsed histogram family, the cumulative
// buckets of the _bucket series that carry every one of labels.
func (f Family) Buckets(labels ...Label) []Bucket {
	var out []Bucket
	bucket := f.Name + "_bucket"
next:
	for _, s := range f.Samples {
		if s.Name != bucket {
			continue
		}
		for _, l := range labels {
			if s.Label(l.Name) != l.Value {
				continue next
			}
		}
		if le, err := strconv.ParseFloat(s.Label("le"), 64); err == nil {
			out = append(out, Bucket{LE: le, Count: s.Value})
		}
	}
	return out
}

// Bucket is one cumulative histogram bucket: Count observations were
// at most LE (+Inf for the last bucket).
type Bucket struct{ LE, Count float64 }

// BucketQuantile estimates the q-th quantile (0..1) from cumulative
// buckets in ascending LE order by linear interpolation inside the
// containing bucket, the standard Prometheus estimate. A quantile in
// the +Inf bucket reports that bucket's lower bound; no observations
// report 0.
func BucketQuantile(q float64, buckets []Bucket) float64 {
	if len(buckets) == 0 || buckets[len(buckets)-1].Count == 0 {
		return 0
	}
	rank := q * buckets[len(buckets)-1].Count
	lower, prev := 0.0, 0.0
	for _, b := range buckets {
		if b.Count >= rank && b.Count > prev {
			if math.IsInf(b.LE, 1) {
				return lower
			}
			return lower + (b.LE-lower)*(rank-prev)/(b.Count-prev)
		}
		lower, prev = b.LE, b.Count
	}
	return lower
}

// WriteText writes fams as one exposition page. Label values are
// escaped by the format's three rules only — backslash, double quote
// and line feed become \\, \" and \n — and every other byte is written
// as is. Help is written verbatim. Integer samples print as %d, the
// rest as %g.
func WriteText(w io.Writer, fams []Family) error {
	var b []byte
	for _, f := range fams {
		if f.Help != "" {
			b = fmt.Appendf(b, "# HELP %s %s\n", f.Name, f.Help)
		}
		b = fmt.Appendf(b, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Samples {
			b = append(appendSeries(b, s.Name, s.Labels), ' ')
			if s.Int {
				b = strconv.AppendInt(b, int64(s.Value), 10)
			} else {
				b = strconv.AppendFloat(b, s.Value, 'g', -1, 64)
			}
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	return err
}

// The label-value escaping rule of the text format, and its inverse.
// The unescaper keeps the backslash of any other escape, as Prometheus
// does.
var (
	labelEscaper   = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	labelUnescaper = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
)

// appendSeries appends name{l1="v1",...}, or the bare name when there
// are no labels.
func appendSeries(b []byte, name string, labels []Label) []byte {
	b = append(b, name...)
	for i, l := range labels {
		if i == 0 {
			b = append(b, '{')
		} else {
			b = append(b, ',')
		}
		b = append(append(append(append(b, l.Name...), '=', '"'), labelEscaper.Replace(l.Value)...), '"')
	}
	if len(labels) > 0 {
		b = append(b, '}')
	}
	return b
}

// ParseText parses an exposition page into its families, in order of
// first appearance, each holding every sample of its family on the
// page. A _bucket, _sum or _count sample belongs to the histogram its
// base name declared earlier on the page; any other sample belongs to
// the family of its own name, whose Type stays empty when the page
// never declared it. Timestamps are ignored. Malformed lines, and a
// second HELP or TYPE line for one family, are skipped; the error
// names the first of them, and the families hold everything else.
func ParseText(text string) ([]Family, error) {
	var fams []Family
	at := map[string]int{}
	family := func(name string) *Family {
		i, ok := at[name]
		if !ok {
			i = len(fams)
			at[name] = i
			fams = append(fams, Family{Name: name})
		}
		return &fams[i]
	}
	var bad error
	for len(text) > 0 {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if line[0] == '#' {
			kind, rest, _ := strings.Cut(strings.TrimPrefix(line, "# "), " ")
			name, value, _ := strings.Cut(rest, " ")
			var field *string
			switch kind {
			case "HELP":
				field = &family(name).Help
			case "TYPE":
				field = &family(name).Type
			default:
				continue // a plain comment
			}
			if *field == "" {
				*field = value
			} else if bad == nil {
				bad = fmt.Errorf("obs: second %s line for %s", kind, name)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			if bad == nil {
				bad = fmt.Errorf("obs: exposition line %q: %w", line, err)
			}
			continue
		}
		name := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(s.Name, suffix); ok {
				if i, ok := at[base]; ok && fams[i].Type == "histogram" {
					name = base
				}
			}
		}
		f := family(name)
		f.Samples = append(f.Samples, s)
	}
	return fams, bad
}

// parseSample parses `name{labels} value [timestamp]`.
func parseSample(line string) (Sample, error) {
	end := strings.IndexAny(line, "{ \t")
	if end <= 0 {
		return Sample{}, errors.New("no metric name or value")
	}
	s := Sample{Name: line[:end]}
	rest := line[end:]
	if line[end] == '{' {
		var err error
		if s.Labels, rest, err = parseLabels(rest[1:]); err != nil {
			return Sample{}, err
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 || len(fields) > 2 || rest[0] != ' ' && rest[0] != '\t' {
		return Sample{}, errors.New("want a space, a value and an optional timestamp")
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	s.Value = v
	return s, err
}

// parseLabels parses the label pairs after a '{' up to and including
// the closing '}', and returns the text after it.
func parseLabels(s string) ([]Label, string, error) {
	labels := make([]Label, 0, 2)
	for {
		if rest, ok := strings.CutPrefix(s, "}"); ok {
			return labels, rest, nil
		}
		name, rest, ok := strings.Cut(s, `="`)
		if !ok {
			return nil, "", fmt.Errorf("bad label at %q", s)
		}
		value, rest, ok := cutLabelValue(rest)
		if !ok {
			return nil, "", errors.New("unterminated label value")
		}
		labels = append(labels, Label{name, value})
		if s, ok = strings.CutPrefix(rest, ","); !ok && !strings.HasPrefix(rest, "}") {
			return nil, "", fmt.Errorf("bad label separator at %q", rest)
		}
	}
}

// cutLabelValue returns the unescaped label value up to its closing
// quote and the text after that quote.
func cutLabelValue(s string) (value, rest string, ok bool) {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // the escaped byte cannot close the value
		case '"':
			if value = s[:i]; strings.Contains(value, `\`) {
				value = labelUnescaper.Replace(value)
			}
			return value, s[i+1:], true
		}
	}
	return "", "", false
}
