package feature

import (
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"heteromap/internal/algo"
	"heteromap/internal/stats"
)

// Every catalog benchmark crossed with a spread of I vectors must
// round-trip Key -> ParseKey exactly.
func TestKeyRoundTripCatalog(t *testing.T) {
	ivs := []IVector{
		{0, 0, 0, 0},
		{0.1, 0.1, 0, 0.8},
		{0.8, 0.7, 1, 0.2},
		{1, 1, 1, 1},
	}
	for _, b := range algo.All() {
		bv := MustCatalog(b.Name)
		for _, iv := range ivs {
			v := Combine(bv, iv)
			got, err := ParseKey(v.Key())
			if err != nil {
				t.Fatalf("%s: ParseKey(%q): %v", b.Name, v.Key(), err)
			}
			if got != v {
				t.Fatalf("%s: round trip %v != %v", b.Name, got, v)
			}
		}
	}
}

// Random discretized vectors round-trip too, and distinct vectors get
// distinct keys (the property the prediction cache relies on).
func TestKeyRoundTripRandomAndDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := map[string]Vector{}
	for i := 0; i < 500; i++ {
		var v Vector
		for j := range v {
			v[j] = float64(rng.Intn(11)) / 10
		}
		v = v.Discretized(DiscretizationStep)
		key := v.Key()
		got, err := ParseKey(key)
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", key, err)
		}
		if got != v {
			t.Fatalf("round trip %v != %v", got, v)
		}
		if prev, ok := seen[key]; ok && prev != v {
			t.Fatalf("key %q collides: %v and %v", key, prev, v)
		}
		seen[key] = v
	}
}

func TestKeyEqualityMatchesVectorEquality(t *testing.T) {
	a := Combine(MustCatalog(algo.NameBFS), IVector{0.1, 0.2, 0.3, 0.4})
	b := Combine(MustCatalog(algo.NameBFS), IVector{0.1, 0.2, 0.3, 0.4})
	c := Combine(MustCatalog(algo.NameBFS), IVector{0.1, 0.2, 0.3, 0.5})
	if a.Key() != b.Key() {
		t.Fatalf("equal vectors, different keys: %q vs %q", a.Key(), b.Key())
	}
	if a.Key() == c.Key() {
		t.Fatalf("distinct vectors share key %q", a.Key())
	}
}

func TestParseKeyErrors(t *testing.T) {
	if _, err := ParseKey("0.1,0.2"); err == nil {
		t.Fatal("short key accepted")
	}
	long := strings.Repeat("0.1,", NumFeatures) + "0.1"
	if _, err := ParseKey(long); err == nil {
		t.Fatal("long key accepted")
	}
	bad := strings.Repeat("0.1,", NumFeatures-1) + "zap"
	if _, err := ParseKey(bad); err == nil {
		t.Fatal("non-numeric component accepted")
	}
	// strconv parses these happily; ParseKey must not.
	for _, comp := range []string{"NaN", "Inf", "-Inf", "1e308", "-0.5", "1.5"} {
		key := strings.Repeat("0.1,", NumFeatures-1) + comp
		if _, err := ParseKey(key); err == nil {
			t.Fatalf("component %q accepted", comp)
		}
	}
}

// FuzzParseKey: arbitrary inputs must either parse into a valid vector
// that round-trips through Key, or error — never panic, never yield a
// non-finite or out-of-range component.
func FuzzParseKey(f *testing.F) {
	f.Add(Vector{}.Key())
	f.Add(Combine(MustCatalog(algo.NameBFS), IVector{0.1, 0.2, 0.3, 0.4}).Key())
	f.Add(strings.Repeat("1,", NumFeatures-1) + "1")
	f.Add("0.1,0.2")
	f.Add(strings.Repeat("NaN,", NumFeatures-1) + "NaN")
	f.Add(strings.Repeat("0.1,", NumFeatures-1) + "+Inf")
	f.Add(strings.Repeat("0.1,", NumFeatures-1) + "1e309")
	f.Add(strings.Repeat(",", NumFeatures-1))
	f.Add("")
	f.Fuzz(func(t *testing.T, key string) {
		v, err := ParseKey(key)
		if err != nil {
			return
		}
		for i, x := range v {
			if x != x || x < 0 || x > 1 {
				t.Fatalf("ParseKey(%q) accepted component %d = %g", key, i, x)
			}
		}
		// A parsed vector must round-trip through its canonical key.
		again, err := ParseKey(v.Key())
		if err != nil {
			t.Fatalf("canonical key %q failed to re-parse: %v", v.Key(), err)
		}
		if again != v {
			t.Fatalf("round trip %v != %v", again, v)
		}
	})
}

func TestDiscretizedSnapsAndClamps(t *testing.T) {
	var v Vector
	v[0], v[1], v[2] = 0.14, -3, 17
	got := v.Discretized(DiscretizationStep)
	if got[0] != 0.1 {
		t.Fatalf("0.14 snapped to %g, want 0.1", got[0])
	}
	if got[1] != 0 || got[2] != 1 {
		t.Fatalf("clamp failed: %g %g", got[1], got[2])
	}
}

func TestShardHashTracksKeyEquality(t *testing.T) {
	var a, b Vector
	a[0], a[5] = 0.3, 0.7
	b = a
	if a.ShardHash() != b.ShardHash() {
		t.Fatalf("equal vectors hash differently: %x vs %x", a.ShardHash(), b.ShardHash())
	}
	b[5] = 0.8
	if a.ShardHash() == b.ShardHash() {
		t.Fatalf("distinct grid points collided: %x", a.ShardHash())
	}
	// The hash is a pure function of the canonical key string, which is
	// the contract that lets every router place a key identically.
	h := fnv.New64a()
	io.WriteString(h, a.Key())
	if a.ShardHash() != h.Sum64() {
		t.Fatalf("ShardHash %x != fnv64a(Key) %x", a.ShardHash(), h.Sum64())
	}
}

// formatKey is the reference rendering Key must reproduce: every
// component through strconv.FormatFloat, comma-separated.
func formatKey(v Vector) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// Key takes grid values from a table and formats the rest into a stack
// buffer; ShardHash hashes the same text. Both must match the
// FormatFloat rendering on the grids of several steps (only the default
// one is tabled), off them, and at the float64 extremes.
func TestKeyMatchesFormatFloat(t *testing.T) {
	var vals []float64
	for _, step := range []float64{0.1, 0.05, 0.25} {
		for i := 0; i <= 1000; i++ {
			vals = append(vals, stats.Discretize(float64(i)/1000, step))
		}
	}
	vals = append(vals,
		0.3, 0.6, 0.7, // the decimal literals, one rounding step off 3*0.1 etc.
		math.Copysign(0, -1), math.Nextafter(0.1, 0), math.Nextafter(0.1, 1),
		math.Nextafter(1, 0), math.Nextafter(1, 2), 1e-7, 1e21, 0.123456789,
		-0.1, -1, 2, 10, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -2.2250738585072014e-308,
		math.NaN(), math.Inf(1), math.Inf(-1))
	check := func(v Vector) {
		t.Helper()
		want := formatKey(v)
		if got := v.Key(); got != want {
			t.Fatalf("Key() = %q, want %q", got, want)
		}
		h := fnv.New64a()
		io.WriteString(h, want)
		if got := v.ShardHash(); got != h.Sum64() {
			t.Fatalf("ShardHash of %q = %x, want fnv64a %x", want, got, h.Sum64())
		}
	}
	for _, x := range vals {
		var v Vector
		for i := range v {
			v[i] = x
		}
		check(v)
	}
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 2000; n++ {
		var v Vector
		for i := range v {
			v[i] = vals[rng.Intn(len(vals))]
		}
		check(v)
	}
}

var keySink string

// A key costs exactly the allocation of the returned string, on the grid
// and off it.
func TestKeyAllocatesOnce(t *testing.T) {
	for _, v := range []Vector{
		Combine(MustCatalog(algo.NameBFS), IVector{0.1, 0.2, 0.3, 0.4}).Discretized(DiscretizationStep),
		Combine(MustCatalog(algo.NameBFS), IVector{0.1, 0.2, 0.3, 0.4}),
	} {
		if n := testing.AllocsPerRun(1000, func() { keySink = v.Key() }); n != 1 {
			t.Fatalf("Key(%q) allocates %.1f times per call, want 1", v.Key(), n)
		}
	}
}

// GridValue knows exactly the default grid's Key texts, and its value is
// ParseFloat's, bit for bit; any other spelling is left to ParseFloat.
func TestGridValueMatchesParseFloat(t *testing.T) {
	texts := []string{
		"0.3", "0.30000000000000005", "0.30000000000000003", "0.300000000000000044",
		"1.0", "-0", "1e-1", "0.10", "00", "01", "0.", "0.0", "10", "2", "0.9999999999999999",
		"-0.1", "0.1e0", "", "0", "1",
	}
	for k := 0; k <= 10; k++ {
		texts = append(texts, strconv.FormatFloat(float64(k)*DiscretizationStep, 'g', -1, 64))
	}
	grid := 0
	for _, text := range texts {
		got, ok := GridValue([]byte(text))
		if !ok {
			continue
		}
		grid++
		want, err := strconv.ParseFloat(text, 64)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("GridValue(%q) = %v, ParseFloat gives %v (%v)", text, got, want, err)
		}
	}
	// "0", "1" and each of the 11 grid texts.
	if grid != 13 {
		t.Fatalf("%d texts took the grid path, want 13", grid)
	}
}
