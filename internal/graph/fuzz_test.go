package graph

import (
	"strings"
	"testing"
)

// FuzzReadEdgeList checks the text loader never panics and that every
// successfully parsed graph satisfies the CSR invariants.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# c\n0 1 2.5\n")
	f.Add("")
	f.Add("0 0\n0 1\n0 1\n")
	f.Add("5 5 5\n")
	f.Add("111111110 0") // one line declaring 111M vertices
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input), "fuzz", 0, true)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("loader produced invalid graph: %v", err)
		}
	})
}
