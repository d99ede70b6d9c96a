// Package graph provides the directed-graph substrate used by the register
// saturation analyses: topological sorting, DAG longest paths, transitive
// closure and reduction, bipartite matching, and maximum antichains of
// partial orders (Dilworth's theorem via König's theorem).
//
// All algorithms operate on dense node identifiers 0..n-1 so callers can map
// their own node sets onto compact indices. Edge weights are int64 latencies;
// negative weights are allowed everywhere because VLIW/EPIC serialization
// arcs may carry non-positive latencies (see the paper, Section 4).
package graph

import "fmt"

// Edge is a weighted directed edge between dense node indices.
type Edge struct {
	From, To int
	Weight   int64
}

// Digraph is a mutable directed multigraph over dense node indices 0..n-1.
// The zero value is an empty graph with no nodes; use New to create one with
// a fixed node count.
type Digraph struct {
	n     int
	edges []Edge
	// succ[u] and pred[v] hold indices into edges, lazily rebuilt.
	succ, pred [][]int
	dirty      bool
}

// New returns an empty digraph with n nodes and no edges.
func New(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Digraph{n: n, dirty: true}
}

// Clone returns a deep copy of g.
func (g *Digraph) Clone() *Digraph {
	c := New(g.n)
	c.edges = append([]Edge(nil), g.edges...)
	c.dirty = true
	return c
}

// AddNode appends a new node and returns its index.
func (g *Digraph) AddNode() int {
	g.n++
	g.dirty = true
	return g.n - 1
}

// AddEdge appends a directed edge from u to v with weight w and returns its
// edge index. Parallel edges are permitted; self-loops are rejected because
// every graph in this project must remain schedulable (a self-loop of any
// weight ≥ 1 is unsatisfiable, and non-positive self-loops are useless).
func (g *Digraph) AddEdge(u, v int, w int64) int {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on node %d", u))
	}
	g.edges = append(g.edges, Edge{From: u, To: v, Weight: w})
	g.dirty = true
	return len(g.edges) - 1
}

// Edges returns the edge list. The returned slice is owned by the graph and
// must not be modified.
func (g *Digraph) Edges() []Edge { return g.edges }

// Edge returns the i-th edge.
func (g *Digraph) Edge(i int) Edge { return g.edges[i] }

// OutEdges returns the indices of edges leaving u. The slice is owned by the
// graph and must not be modified.
func (g *Digraph) OutEdges(u int) []int {
	g.build()
	return g.succ[u]
}

// InEdges returns the indices of edges entering v. The slice is owned by the
// graph and must not be modified.
func (g *Digraph) InEdges(v int) []int {
	g.build()
	return g.pred[v]
}

// RemoveEdges deletes the edges whose indices are listed in idx and
// invalidates all previously returned edge indices.
func (g *Digraph) RemoveEdges(idx []int) {
	if len(idx) == 0 {
		return
	}
	drop := make(map[int]bool, len(idx))
	for _, i := range idx {
		if i < 0 || i >= len(g.edges) {
			panic(fmt.Sprintf("graph: edge index %d out of range", i))
		}
		drop[i] = true
	}
	kept := g.edges[:0]
	for i, e := range g.edges {
		if !drop[i] {
			kept = append(kept, e)
		}
	}
	g.edges = kept
	g.dirty = true
}

func (g *Digraph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, g.n))
	}
}

func (g *Digraph) build() {
	if !g.dirty {
		return
	}
	g.succ = make([][]int, g.n)
	g.pred = make([][]int, g.n)
	for i, e := range g.edges {
		g.succ[e.From] = append(g.succ[e.From], i)
		g.pred[e.To] = append(g.pred[e.To], i)
	}
	g.dirty = false
}
