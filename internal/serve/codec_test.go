package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"testing"

	"heteromap/internal/config"
	"heteromap/internal/feature"
	"heteromap/internal/machine"
	"heteromap/internal/train"
)

// wireKey draws one discretized characterization the way the serve
// benchmark's clients do.
func wireKey(rng *rand.Rand) feature.Vector {
	return feature.Combine(train.RandomB(rng), train.RandomI(rng)).Discretized(feature.DiscretizationStep)
}

// wireBodies are bodies in the canonical shape: json.Marshal output of
// single and batch requests, by features and by benchmark name, with
// batchItems items in the batch by features.
func wireBodies(t testing.TB, batchItems int) [][]byte {
	rng := rand.New(rand.NewSource(3))
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	named := PredictRequest{Model: "tree", Bench: "SSSP-BF", Vertices: 4000000, Edges: 90000000, MaxDegree: 5000, Diameter: 10}
	var batch BatchRequest
	for i := 0; i < batchItems; i++ {
		f := wireKey(rng)
		batch.Requests = append(batch.Requests, PredictRequest{Model: "deep", Features: f[:]})
	}
	f := wireKey(rng)
	return [][]byte{
		marshal(PredictRequest{Model: "tree", Features: f[:]}),
		marshal(PredictRequest{Features: f[:]}),
		marshal(named),
		marshal(batch),
		marshal(BatchRequest{Requests: []PredictRequest{named, {Bench: "BFS", Vertices: 1, Edges: 2, MaxDegree: 3, Diameter: 4}}}),
		marshal(BatchRequest{Requests: []PredictRequest{}}),
	}
}

// sameDecode fails unless the codec's outcome equals json.Unmarshal's:
// both accept or both reject, with the same error text, and the values
// are deeply equal (so a nil and an empty Features differ).
func sameDecode(t *testing.T, body []byte, got any, gotErr error, want any, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("body %q: codec error %v, json.Unmarshal error %v", body, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: codec decoded %#v, json.Unmarshal %#v", body, got, want)
	}
}

// FuzzDecodePredictBody: for any bytes, decoded as either predict body,
// the codec and json.Unmarshal agree on acceptance, error text and value.
func FuzzDecodePredictBody(f *testing.F) {
	// Two batch items, not the benchmark's 32: the fuzzer minimizes every
	// new input it finds, and on a 12 KB body that stalls it for a minute.
	for _, b := range wireBodies(f, 2) {
		f.Add(b)
	}
	for _, s := range []string{
		``, ` `, `{}`, `[]`, `null`, ` { } `, "{\n\t\"model\" : \"tree\" ,\r\"features\":[ 0.1 , 1 ]\n}",
		// Escapes.
		`{"model":"de\"ep"}`, `{"model":"\u0074ree"}`, `{"model":"\u2028"}`, `{"bench":"BFS\\"}`,
		// Mixed-case, repeated and unknown keys, and nulls.
		`{"Model":"tree","FEATURES":[0.5]}`, `{"model":"a","model":"b"}`,
		`{"features":[0.1,0.2],"features":[]}`, `{"features":[],"features":[0.3]}`,
		`{"requests":[{"model":"a","bench":"x"}],"requests":[{"model":"b"}]}`,
		`{"requests":[{"model":"a"},{"model":"a","model":"b"}]}`,
		`{"extra":1,"model":"tree"}`, `{"requests":[],"model":"tree"}`,
		`{"model":null}`, `{"features":null}`, `{"features":[null]}`, `{"requests":null}`, `{"requests":[null]}`,
		// Numbers into the integer fields.
		`{"bench":"BFS","vertices":1e3}`, `{"vertices":1.0}`, `{"vertices":-0}`, `{"vertices":01}`,
		`{"vertices":9223372036854775807}`, `{"vertices":9223372036854775808}`, `{"diameter":-9223372036854775808}`,
		// Numbers into features.
		`{"features":[-0,0.30000000000000004,1e400]}`, `{"features":[-0]}`, `{"features":[1e-400,5e-324,1E+2]}`,
		`{"features":[.5]}`, `{"features":[1.]}`, `{"features":[+1]}`, `{"features":[1e]}`, `{"features":[-]}`,
		`{"features":[0.1,]}`, `{"features":[0.1 0.2]}`, `{"features":["0.1"]}`,
		// Grid literals, which skip ParseFloat, and their near misses.
		`{"features":[0.3,0.30000000000000004,0.30000000000000005,0.7000000000000001,1,1.0,0,-0,1e-1]}`,
		`{"requests":[{"features":[0.30000000000000004,0.3]},{"features":[0.7000000000000001,1.0,1]},{"features":[-0,0,1e-1]}]}`,
		// Trailing bytes and truncation.
		`{"model":"tree"} x`, `{"model":"tree"}{}`, `{"requests":[]}]`, `{"model":"tree"`, `{"requests":[{}`,
		// Non-ASCII and control bytes in strings.
		`{"model":"модель"}`, "{\"model\":\"\xff\"}", "{\"model\":\"a\x01\"}", "{\"model\":\"\x7f\"}",
		`{"requests":[{"model":"déep","features":[0.5]}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want PredictRequest
		wantErr := json.Unmarshal(body, &want)
		got, err := DecodePredictRequest(body)
		sameDecode(t, body, got, err, want, wantErr)

		var wantBatch BatchRequest
		wantErr = json.Unmarshal(body, &wantBatch)
		gotBatch, err := DecodeBatchRequest(body)
		sameDecode(t, body, gotBatch, err, wantBatch, wantErr)
	})
}

// Every body a json.Marshal client sends takes the single-pass decoder,
// not the json.Unmarshal fallback, and the strings it returns are copies:
// the handler reuses the body's buffer for the next request.
func TestDecodeFastPathTakesMarshalOutput(t *testing.T) {
	for _, body := range wireBodies(t, 32) {
		buf := append([]byte(nil), body...)
		d := wireDecoder{b: buf}
		var got, want any
		var ok bool
		if bytes.HasPrefix(body, []byte(`{"requests"`)) {
			var b, ref BatchRequest
			ok = d.batch(&b) && d.end()
			json.Unmarshal(body, &ref)
			got, want = &b, &ref
		} else {
			var r, ref PredictRequest
			ok = d.request(&r) && d.end()
			json.Unmarshal(body, &ref)
			got, want = &r, &ref
		}
		if !ok {
			t.Fatalf("body %s fell back to json.Unmarshal", body)
		}
		for i := range buf {
			buf[i] = 'x'
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded value differs or aliases the body:\n got %#v\nwant %#v", got, want)
		}
	}
}

// The decoded items' Features share one array, each capped at its own
// length: appending to one item's features reallocates it and leaves
// every other item's values as they were.
func TestDecodeFeaturesAppendIsolated(t *testing.T) {
	body := wireBodies(t, 3)[3]
	got, err := DecodeBatchRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	var want BatchRequest
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	for i := range got.Requests {
		got.Requests[i].Features = append(got.Requests[i].Features, 0.25, 0.75)
		want.Requests[i].Features = append(want.Requests[i].Features, 0.25, 0.75)
		if !reflect.DeepEqual(got.Requests, want.Requests) {
			t.Fatalf("after appending to item %d:\n got %v\nwant %v", i, got.Requests, want.Requests)
		}
	}
}

// encodeReference is what the handlers wrote before the codec: a
// json.Encoder's output for v.
func encodeReference(t *testing.T, v any) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// wireStrings need each of encoding/json's escapes: the quote, the
// backslash, control bytes, HTML-escaped characters, U+2028/U+2029 and
// invalid UTF-8 — beside plain and non-ASCII text.
var wireStrings = []string{
	"", "tree", "Decision Tree", `q"uote`, `back\slash`, "new\nline", "tab\there", "\x01", "\x7f",
	"<b>", "a<b", "a>b", "a&b", "line\u2028sep", "para\u2029sep", "\xff\xfe", "mod\xe9le", "modèle", "日本",
}

// The encoder writes what json.Encoder writes: field order, omitempty,
// HTML escaping and the trailing newline, for every string the fields can
// carry and every omitempty field set or unset.
func TestWireEncodeMatchesEncoder(t *testing.T) {
	ms := config.Enumerate(machine.PrimaryPair().Limits())
	var resps []PredictResponse
	for i, s := range wireStrings {
		resps = append(resps, PredictResponse{
			Model: s, Version: uint64(i), Key: s, PredictorUsed: s, Cached: i%2 == 0, M: ms[i%len(ms)],
			Fallbacks: []string{s, "x"}, Resilience: []string{s}, TraceID: s, Error: s,
		})
	}
	for mask := 0; mask < 1<<4; mask++ {
		// Unset, Fallbacks is empty and Resilience nil: both are omitted.
		r := PredictResponse{Model: "deep", Version: math.MaxUint64, Key: "0,0.1", PredictorUsed: "Deep.128",
			M: ms[mask], Fallbacks: []string{}}
		if mask&1 != 0 {
			r.Fallbacks = []string{"Deep.128 failed: stall"}
		}
		if mask&2 != 0 {
			r.Resilience = []string{"probe: low confidence", "breaker: routed"}
		}
		if mask&4 != 0 {
			r.TraceID = "4bf92f3577b34da6"
		}
		if mask&8 != 0 {
			r.Error = "serve: features has 2 components, want 17"
		}
		resps = append(resps, r)
	}
	for _, r := range resps {
		want, err := encodeReference(t, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendPredictResponse([]byte("prefix"), &r)
		if err != nil || string(got) != "prefix"+string(want) {
			t.Fatalf("AppendPredictResponse(%+v):\n got %q, %v\nwant %q", r, got, err, want)
		}
	}
	for _, br := range []BatchResponse{{}, {Responses: []PredictResponse{}}, {Responses: resps[:1]}, {Responses: resps}} {
		want, err := encodeReference(t, br)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendBatchResponse(nil, &br)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("AppendBatchResponse(%d responses):\n got %q, %v\nwant %q", len(br.Responses), got, err, want)
		}
	}

	// What json.Encoder cannot encode, the codec refuses too.
	bad := resps[0]
	bad.M.Schedule = 9
	if _, err := encodeReference(t, bad); err == nil {
		t.Fatal("json.Encoder encoded an invalid schedule")
	}
	if _, err := AppendPredictResponse(nil, &bad); err == nil {
		t.Fatal("AppendPredictResponse encoded an invalid schedule")
	}
	if _, err := AppendBatchResponse(nil, &BatchResponse{Responses: []PredictResponse{resps[1], bad}}); err == nil {
		t.Fatal("AppendBatchResponse encoded an invalid schedule")
	}
}

// A real 32-item answer from the batch handler: half the items repeat a
// hot key, half are fresh, and one is malformed. Its bytes are what a
// json.Encoder writes for the decoded value, and encoding it again into a
// buffer with room allocates nothing.
func TestWireEncodeBatchFromHandler(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	rng := rand.New(rand.NewSource(9))
	hot := wireKey(rng)
	var req BatchRequest
	for i := 0; i < 32; i++ {
		f := wireKey(rng)
		if i%2 == 0 {
			f = hot
		}
		req.Requests = append(req.Requests, PredictRequest{Model: "tree", Features: f[:]})
	}
	req.Requests[5].Features = req.Requests[5].Features[:2]
	resp, body := postJSON(t, ts.URL+"/v1/predict/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("Content-Length %d for a %d-byte body", resp.ContentLength, len(body))
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Responses) != 32 || br.Responses[5].Error == "" || !br.Responses[2].Cached {
		t.Fatalf("unexpected batch answer: %s", body)
	}
	want, err := encodeReference(t, br)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("handler body differs from json.Encoder:\n got %s\nwant %s", body, want)
	}
	buf := make([]byte, 0, 2*len(body))
	if n := testing.AllocsPerRun(100, func() {
		buf, err = AppendBatchResponse(buf[:0], &br)
	}); n != 0 || err != nil {
		t.Fatalf("AppendBatchResponse allocates %.1f times per call (err %v), want 0", n, err)
	}
}

// BenchmarkWireCodec times one 32-item body of the batch-deep128 shape
// through encoding/json and through the codec, in each direction, and
// renders the 32 items' string keys.
func BenchmarkWireCodec(b *testing.B) {
	body := wireBodies(b, 32)[3]
	batch, err := DecodeBatchRequest(body)
	if err != nil {
		b.Fatal(err)
	}
	ms := config.Enumerate(machine.PrimaryPair().Limits())
	feats := make([]feature.Vector, len(batch.Requests))
	resp := BatchResponse{Responses: make([]PredictResponse, len(batch.Requests))}
	for i, r := range batch.Requests {
		copy(feats[i][:], r.Features)
		resp.Responses[i] = PredictResponse{Model: r.Model, Version: 1, Key: feats[i].Key(),
			PredictorUsed: "Deep.128", Cached: i%2 == 0, M: ms[i*7%len(ms)], TraceID: "4bf92f3577b34da6"}
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	buf := make([]byte, 0, 64<<10)
	b.Run("decode/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var v BatchRequest
			if err := json.Unmarshal(body, &v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeBatchRequest(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out.Reset()
			if err := enc.Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if buf, err = AppendBatchResponse(buf[:0], &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("keys", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range feats {
				resp.Responses[j].Key = feats[j].Key()
			}
		}
	})
}
