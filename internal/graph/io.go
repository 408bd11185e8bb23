package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file reads and writes whitespace-separated edge lists, the de-facto
// interchange format of SNAP / DIMACS-style datasets, so downstream users
// can bring their own graphs.

// ReadEdgeList parses a whitespace-separated edge list: one "src dst
// [weight]" triple per line, '#' or '%' comment lines ignored. Vertex ids
// are 0-based; the vertex count is one past the largest id unless a
// larger minVertices is given. Set undirected to mirror every edge.
//
// Building costs about 40 bytes per vertex, so a vertex count above
// max(minVertices, 1<<20, 8 × edges read) is rejected: one line holding a
// huge id would otherwise make a few bytes of input allocate gigabytes.
func ReadEdgeList(r io.Reader, name string, minVertices int, undirected bool) (*Graph, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)

	var edges []Edge
	weighted := false
	maxID := int64(-1)
	maxIDLine := 0
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 'src dst [weight]', got %q", lineNo, line)
		}
		src, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src: %w", lineNo, err)
		}
		dst, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst: %w", lineNo, err)
		}
		if src < 0 || dst < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id", lineNo)
		}
		var w float64
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %w", lineNo, err)
			}
			weighted = true
		}
		if id := max(src, dst); id > maxID {
			maxID, maxIDLine = id, lineNo
		}
		edges = append(edges, Edge{Src: int32(src), Dst: int32(dst), Weight: float32(w)})
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	// An edge list with no edges is almost always a wrong path or a
	// truncated download; reject it unless the caller explicitly asked
	// for isolated vertices via minVertices.
	if len(edges) == 0 && minVertices <= 0 {
		return nil, fmt.Errorf("graph: %s: empty edge list (%d lines, no edges)", name, lineNo)
	}

	if limit := max(minVertices, 1<<20, 8*len(edges)); maxID >= int64(limit) {
		return nil, fmt.Errorf("graph: line %d: vertex id %d implies %d vertices for %d edges (limit %d)",
			maxIDLine, maxID, maxID+1, len(edges), limit)
	}
	b := NewBuilder(name, max(int(maxID+1), minVertices)).Dedupe().NoSelfLoops()
	if weighted {
		b.Weighted()
	}
	if undirected {
		b.Undirected()
	}
	for _, e := range edges {
		b.Add(e.Src, e.Dst, e.Weight)
	}
	return b.Build()
}

// WriteEdgeList emits the graph as a parsable edge list (weights included
// for weighted graphs). For undirected graphs each underlying edge is
// written once (low id first).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# graph %s: V=%d E=%d\n", g.Name, g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		nb := g.Neighbors(v)
		ws := g.NeighborWeights(v)
		for i, u := range nb {
			if g.Undirected && int(u) < v {
				continue
			}
			if ws != nil {
				fmt.Fprintf(bw, "%d %d %g\n", v, u, ws[i])
			} else {
				fmt.Fprintf(bw, "%d %d\n", v, u)
			}
		}
	}
	return bw.Flush()
}
