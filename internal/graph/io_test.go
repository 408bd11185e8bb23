package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# a comment
% another comment
0 1 2.5
1 2 1.0

2 0 3.5
`
	g, err := ReadEdgeList(strings.NewReader(in), "tri", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if !g.Weighted() {
		t.Fatal("weights lost")
	}
	if g.NeighborWeights(0)[0] != 2.5 {
		t.Fatalf("weight %v", g.NeighborWeights(0)[0])
	}
}

func TestReadEdgeListUnweighted(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n"), "p", 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.Weighted() {
		t.Fatal("unweighted input produced weights")
	}
	if !g.Undirected || g.NumEdges() != 4 {
		t.Fatalf("mirroring: E=%d", g.NumEdges())
	}
}

func TestReadEdgeListMinVertices(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n"), "iso", 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 {
		t.Fatalf("V=%d want 10 (isolated vertices)", g.NumVertices())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",       // too few fields
		"a 1\n",     // bad src
		"0 b\n",     // bad dst
		"-1 2\n",    // negative id
		"0 1 zzz\n", // bad weight
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), "bad", 0, false); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestReadEdgeListErrorsNameLine(t *testing.T) {
	// Error messages must point the user at the offending line.
	cases := []struct{ in, want string }{
		{"0 1\n0\n", "line 2"},
		{"# c\n\n0 1\na b\n", "line 4"},
		{"0 1\n-1 2\n", "line 2: negative vertex id"},
		{"0 1\n0 1 zzz\n", "line 2: bad weight"},
		{"0 1\n4194303 0\n", "line 2"}, // 4M vertices for 2 edges
		{"4194303 0\n0 1\n", "line 1"},
	}
	for _, c := range cases {
		_, err := ReadEdgeList(strings.NewReader(c.in), "bad", 0, false)
		if err == nil {
			t.Errorf("input %q: expected error", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("input %q: error %q missing %q", c.in, err, c.want)
		}
	}
}

func TestReadEdgeListEmpty(t *testing.T) {
	// A file with no edges is a wrong path or truncated download, not a
	// valid graph.
	for _, in := range []string{"", "\n\n", "# only comments\n% more\n"} {
		_, err := ReadEdgeList(strings.NewReader(in), "empty", 0, false)
		if err == nil {
			t.Errorf("input %q: empty edge list accepted", in)
			continue
		}
		if !strings.Contains(err.Error(), "empty edge list") {
			t.Errorf("input %q: error %q", in, err)
		}
	}
	// Explicitly requested isolated vertices are still legal (round
	// trips of edgeless graphs rely on this).
	g, err := ReadEdgeList(strings.NewReader("# none\n"), "iso", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 0 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	b := NewBuilder("rt", 6).Weighted().Undirected()
	b.Add(0, 1, 1.5)
	b.Add(1, 2, 2)
	b.Add(3, 4, 4.25)
	g := b.MustBuild()

	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf, "rt", g.NumVertices(), true)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip V=%d E=%d want V=%d E=%d",
			back.NumVertices(), back.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		a, bnb := g.Neighbors(v), back.Neighbors(v)
		if len(a) != len(bnb) {
			t.Fatalf("vertex %d degree", v)
		}
		for i := range a {
			if a[i] != bnb[i] {
				t.Fatalf("vertex %d neighbor %d", v, i)
			}
			if g.NeighborWeights(v)[i] != back.NeighborWeights(v)[i] {
				t.Fatalf("vertex %d weight %d", v, i)
			}
		}
	}
}

func TestWriteEdgeListDirectedKeepsAllEdges(t *testing.T) {
	b := NewBuilder("d", 3)
	b.Add(0, 1, 0)
	b.Add(1, 0, 0)
	g := b.MustBuild()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if line != "" && line[0] != '#' {
			lines++
		}
	}
	if lines != 2 {
		t.Fatalf("directed writer emitted %d edges, want 2", lines)
	}
}
