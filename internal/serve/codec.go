package serve

import (
	"bytes"
	"encoding/json"
	"strconv"

	"heteromap/internal/feature"
)

// The predict wire codec: /v1/predict and /v1/predict/batch decode their
// bodies and encode their answers here, without reflection. Both
// directions are defined by encoding/json. The decoder takes a single
// pass over the canonical shape every json.Marshal client sends, and
// hands any other body, unchanged, to json.Unmarshal. The encoder writes
// the bytes a json.Encoder writes. The other endpoints keep
// encoding/json.

// DecodePredictRequest decodes a /v1/predict body. The result and error
// are those of json.Unmarshal into a zero PredictRequest.
func DecodePredictRequest(body []byte) (PredictRequest, error) {
	d := wireDecoder{b: body}
	var req PredictRequest
	if d.request(&req) && d.end() {
		return req, nil
	}
	req = PredictRequest{}
	err := json.Unmarshal(body, &req)
	return req, err
}

// DecodeBatchRequest decodes a /v1/predict/batch body. The result and
// error are those of json.Unmarshal into a zero BatchRequest.
func DecodeBatchRequest(body []byte) (BatchRequest, error) {
	d := wireDecoder{b: body}
	var batch BatchRequest
	if d.batch(&batch) && d.end() {
		return batch, nil
	}
	batch = BatchRequest{}
	err := json.Unmarshal(body, &batch)
	return batch, err
}

// wireDecoder is the fast path's single pass over one body. Every method
// reports whether the body still has the canonical shape: known keys in
// exact case, strings of printable ASCII without escapes, numbers and
// arrays of numbers, and any whitespace. Anything else (an unknown or
// mixed-case key, an escape, a null, a fraction for an integer field, a
// repeated "requests") sends the body to json.Unmarshal, so the fast path
// never needs an error of its own. Within that shape a repeated key's last
// value wins, as in json.Unmarshal.
type wireDecoder struct {
	b []byte
	i int
	// model and bench are the last strings copied out of the body; an
	// item repeating one shares the copy, as every item of a batch names
	// the same model.
	model, bench string
	// feats holds every features array of the body, one after another;
	// each item's Features is its own stretch of it.
	feats []float64
}

func (d *wireDecoder) batch(batch *BatchRequest) bool {
	seen := false
	return d.object(func(key []byte) bool {
		// json.Unmarshal decodes a repeated "requests" into the first
		// one's items, merging the two; that is left to it.
		if string(key) != "requests" || seen {
			return false
		}
		seen = true
		// Every item of a canonical body opens a brace, as does the
		// outer object, so the braces bound the item count; a brace in a
		// string only over-counts. An item with its comma takes at least
		// three bytes, which caps the bound at a third of the body.
		batch.Requests = make([]PredictRequest, 0, max(0, min(bytes.Count(d.b, []byte{'{'})-1, len(d.b)/3)))
		return d.array(func() bool {
			batch.Requests = append(batch.Requests, PredictRequest{})
			return d.request(&batch.Requests[len(batch.Requests)-1])
		})
	})
}

func (d *wireDecoder) request(req *PredictRequest) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "model":
			return d.text(&req.Model, &d.model)
		case "bench":
			return d.text(&req.Bench, &d.bench)
		case "vertices":
			return d.integer(&req.Vertices)
		case "edges":
			return d.integer(&req.Edges)
		case "max_degree":
			return d.integer(&req.MaxDegree)
		case "diameter":
			return d.integer(&req.Diameter)
		case "features":
			return d.features(&req.Features)
		}
		return false
	})
}

// object reads `{"key": value, ...}`; member consumes each value.
func (d *wireDecoder) object(member func(key []byte) bool) bool {
	if !d.skip('{') {
		return false
	}
	if d.skip('}') {
		return true
	}
	for {
		key, ok := d.str()
		if !ok || !d.skip(':') || !member(key) {
			return false
		}
		if !d.skip(',') {
			return d.skip('}')
		}
	}
}

// array reads `[elem, ...]`; elem consumes each element.
func (d *wireDecoder) array(elem func() bool) bool {
	if !d.skip('[') {
		return false
	}
	if d.skip(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !d.skip(',') {
			return d.skip(']')
		}
	}
}

// ws skips JSON whitespace.
func (d *wireDecoder) ws() {
	for ; d.i < len(d.b); d.i++ {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
		default:
			return
		}
	}
}

// skip consumes c after any whitespace, reporting whether it was there.
func (d *wireDecoder) skip(c byte) bool {
	d.ws()
	return d.opt(c)
}

// end reports whether only whitespace is left.
func (d *wireDecoder) end() bool {
	d.ws()
	return d.i == len(d.b)
}

// str reads a string of printable ASCII without escapes. The bytes alias
// the body.
func (d *wireDecoder) str() ([]byte, bool) {
	if !d.skip('"') {
		return nil, false
	}
	for start := d.i; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// text reads a string into *dst, copied out of the body (which the caller
// reuses) unless it equals *last, whose copy is shared instead.
func (d *wireDecoder) text(dst, last *string) bool {
	s, ok := d.str()
	if !ok {
		return false
	}
	if string(s) != *last {
		*last = string(s)
	}
	*dst = *last
	return true
}

// integer reads an integer literal that fits an int64. ParseInt refuses a
// fraction, an exponent and an out-of-range value, each of which is
// json.Unmarshal's to reject.
func (d *wireDecoder) integer(dst *int64) bool {
	lit, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		return false
	}
	*dst = n
	return true
}

// features reads an array of numbers onto the end of d.feats and stores
// that stretch, capped at its length so that appending to one item's
// features reallocates instead of writing over the next item's; `[]`
// gives an empty, non-nil slice, as in json.Unmarshal. A literal that
// spells a default grid value as feature.Vector.Key does skips
// ParseFloat.
func (d *wireDecoder) features(dst *[]float64) bool {
	if d.feats == nil {
		// A canonical literal with its comma takes about ten bytes, so
		// an eighth of the body usually holds every features array of a
		// batch in one allocation; append grows it when not.
		d.feats = make([]float64, 0, len(d.b)/8)
	}
	start := len(d.feats)
	ok := d.array(func() bool {
		lit, ok := d.number()
		if !ok {
			return false
		}
		f, ok := feature.GridValue(lit)
		if !ok {
			var err error
			// A literal out of float64's range is json.Unmarshal's to
			// reject.
			if f, err = strconv.ParseFloat(string(lit), 64); err != nil {
				return false
			}
		}
		d.feats = append(d.feats, f)
		return true
	})
	if ok {
		*dst = d.feats[start:len(d.feats):len(d.feats)]
	}
	return ok
}

// number reads a literal of the JSON number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *wireDecoder) number() ([]byte, bool) {
	d.ws()
	start := d.i
	d.opt('-')
	if !d.opt('0') && d.digits() == 0 {
		return nil, false
	}
	if d.opt('.') && d.digits() == 0 {
		return nil, false
	}
	if d.opt('e') || d.opt('E') {
		if !d.opt('+') {
			d.opt('-')
		}
		if d.digits() == 0 {
			return nil, false
		}
	}
	return d.b[start:d.i], true
}

// opt consumes c when it is next, with no whitespace skipped.
func (d *wireDecoder) opt(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and returns its length.
func (d *wireDecoder) digits() int {
	start := d.i
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i - start
}

// AppendPredictResponse appends the encoding of r to b: the bytes
// json.NewEncoder(w).Encode(r) writes, trailing newline included.
func AppendPredictResponse(b []byte, r *PredictResponse) ([]byte, error) {
	b, err := appendResponse(b, r)
	if err != nil {
		return b, err
	}
	return append(b, '\n'), nil
}

// AppendBatchResponse appends the encoding of r to b: the bytes
// json.NewEncoder(w).Encode(r) writes, trailing newline included.
func AppendBatchResponse(b []byte, r *BatchResponse) ([]byte, error) {
	b = append(b, `{"responses":`...)
	if r.Responses == nil {
		return append(b, "null}\n"...), nil
	}
	b = append(b, '[')
	for i := range r.Responses {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendResponse(b, &r.Responses[i]); err != nil {
			return b, err
		}
	}
	return append(b, "]}\n"...), nil
}

// appendResponse writes PredictResponse's fields in declaration order,
// leaving out the omitempty ones that are empty.
func appendResponse(b []byte, r *PredictResponse) ([]byte, error) {
	b = appendString(append(b, `{"model":`...), r.Model)
	b = strconv.AppendUint(append(b, `,"version":`...), r.Version, 10)
	b = appendString(append(b, `,"key":`...), r.Key)
	b = appendString(append(b, `,"predictor_used":`...), r.PredictorUsed)
	b = strconv.AppendBool(append(b, `,"cached":`...), r.Cached)
	b, err := r.M.AppendJSON(append(b, `,"m":`...))
	if err != nil {
		return b, err
	}
	if len(r.Fallbacks) > 0 {
		b = appendStrings(append(b, `,"fallbacks":`...), r.Fallbacks)
	}
	if len(r.Resilience) > 0 {
		b = appendStrings(append(b, `,"resilience":`...), r.Resilience)
	}
	if r.TraceID != "" {
		b = appendString(append(b, `,"trace_id":`...), r.TraceID)
	}
	if r.Error != "" {
		b = appendString(append(b, `,"error":`...), r.Error)
	}
	return append(b, '}'), nil
}

func appendStrings(b []byte, ss []string) []byte {
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// appendString quotes s as encoding/json does. Printable ASCII other than
// the quote, the backslash and the HTML-escaped <, > and & needs no
// escape; any other string, rare on this path, is quoted by json.Marshal
// itself, which also owns UTF-8 validation and the U+2028/U+2029 escapes.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			// A string always marshals.
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
