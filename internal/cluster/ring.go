// Package cluster is the horizontal scale-out tier: a consistent-hash
// ring over the discretized (B, I) keyspace routes predictions across a
// set of serve nodes, each shard backed by a replica group, behind a
// router front-end that fails over on node death, hedges slow primaries
// against their replicas, and keeps hedged pairs on one model version
// during rolling reloads.
//
// One serving process is a single point of failure no matter how
// self-healing it is; this package is what lets the predictor survive a
// kill -9 mid-storm while the loadtest availability floor (≥99%) still
// holds. Placement is deterministic: every router instance, given the
// same node set, places every key identically, because the ring is a
// pure function of (node names, virtual-node count) and the shard key is
// the canonical feature.Vector.Key. Sharding on the cache key means each
// node's LRU prediction cache stays hot on exactly its slice of the
// keyspace — routing and caching agree by construction.
package cluster

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
)

// DefaultVNodes is the virtual-node count per physical node. 64 points
// per node keeps the placement spread tight (removing one of N nodes
// remaps ~1/N of keys, tested as a property) while a full ring rebuild
// stays microseconds even for dozens of nodes.
const DefaultVNodes = 64

// point is one virtual node on the hash circle.
type point struct {
	hash uint64
	node int // index into Ring.nodes
}

// Ring is an immutable consistent-hash ring. Mutations (With, Without)
// return a new ring, so routers can publish snapshots behind an atomic
// pointer and look up lock-free on the hot path.
type Ring struct {
	nodes  []string
	points []point // sorted by hash
	vnodes int
}

// hashString is the ring's placement hash (FNV-1a 64), shared with
// feature.Vector.ShardHash so key placement is stable across processes.
func hashString(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	return h.Sum64()
}

// New builds a ring over the given nodes with vnodes virtual nodes each
// (<= 0 selects DefaultVNodes). Duplicate node names are collapsed; node
// order does not affect placement — the ring is a pure function of the
// node *set*.
func New(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(nodes))
	uniq := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		uniq = append(uniq, n)
	}
	// Sorting the node list makes the ring canonical for a node set, so
	// two routers configured with the same peers in different order
	// agree on every placement.
	sort.Strings(uniq)
	r := &Ring{nodes: uniq, vnodes: vnodes}
	r.points = make([]point, 0, len(uniq)*vnodes)
	for i, n := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: hashString(fmt.Sprintf("%s#%d", n, v)), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// Len returns the number of (physical) nodes on the ring.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns the ring's node set, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Has reports whether a node is on the ring.
func (r *Ring) Has(node string) bool {
	i := sort.SearchStrings(r.nodes, node)
	return i < len(r.nodes) && r.nodes[i] == node
}

// Lookup returns up to n distinct nodes owning the hash, in preference
// order: the primary is the first virtual node clockwise from the hash,
// the replicas the next distinct physical nodes continuing clockwise.
// Returns nil on an empty ring. The walk visits each physical node at
// most once, so n >= Len() returns every node.
func (r *Ring) Lookup(hash uint64, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= hash })
	out := make([]string, 0, n)
	taken := make(map[int]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if taken[p.node] {
			continue
		}
		taken[p.node] = true
		out = append(out, r.nodes[p.node])
	}
	return out
}

// With returns a ring with the node added (or the receiver when it is
// already present).
func (r *Ring) With(node string) *Ring {
	if node == "" || r.Has(node) {
		return r
	}
	return New(append(r.Nodes(), node), r.vnodes)
}

// Without returns a ring with the node removed (or the receiver when it
// is absent). Only keys owned by the removed node change owners — the
// bounded-rebalance property that makes failover cheap.
func (r *Ring) Without(node string) *Ring {
	if !r.Has(node) {
		return r
	}
	keep := make([]string, 0, len(r.nodes)-1)
	for _, n := range r.nodes {
		if n != node {
			keep = append(keep, n)
		}
	}
	return New(keep, r.vnodes)
}
