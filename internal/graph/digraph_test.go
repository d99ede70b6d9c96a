package graph

import (
	"math/rand"
	"testing"
)

// hasEdge reports whether at least one edge u→v exists in g.
func hasEdge(g *Digraph, u, v int) bool {
	for _, ei := range g.OutEdges(u) {
		if g.Edge(ei).To == v {
			return true
		}
	}
	return false
}

func TestNewAndAddNode(t *testing.T) {
	g := New(3)
	if len(g.Edges()) != 0 {
		t.Fatalf("new graph has %d edges, want 0", len(g.Edges()))
	}
	id := g.AddNode()
	if id != 3 {
		t.Fatalf("AddNode returned %d, want 3", id)
	}
	g.AddEdge(0, id, 1) // the new node is in range
	if got := g.InEdges(id); len(got) != 1 {
		t.Fatalf("InEdges(%d)=%v, want one edge", id, got)
	}
}

func TestAddEdgeAndAdjacency(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 2, 3)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)

	if got := g.OutEdges(0); len(got) != 2 {
		t.Fatalf("OutEdges(0)=%v, want 2 edges", got)
	}
	if got := g.InEdges(3); len(got) != 2 {
		t.Fatalf("InEdges(3)=%v, want 2 edges", got)
	}
	if len(g.InEdges(0)) != 0 {
		t.Fatal("source node has in-edges")
	}
	if !hasEdge(g, 0, 1) || hasEdge(g, 1, 0) {
		t.Fatal("edge direction wrong")
	}
}

func TestParallelEdgesAllowed(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 1, 5)
	if len(g.Edges()) != 2 {
		t.Fatalf("%d edges, want 2", len(g.Edges()))
	}
	if got := g.OutEdges(0); len(got) != 2 {
		t.Fatalf("parallel edges should appear with multiplicity, got %v", got)
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-loop")
		}
	}()
	g := New(1)
	g.AddEdge(0, 0, 1)
}

func TestRemoveEdges(t *testing.T) {
	g := New(3)
	e0 := g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.RemoveEdges([]int{e0})
	if len(g.Edges()) != 1 {
		t.Fatalf("%d edges, want 1", len(g.Edges()))
	}
	if hasEdge(g, 0, 1) || !hasEdge(g, 1, 2) {
		t.Fatal("wrong edge removed")
	}
}

func TestClone(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 7)
	c := g.Clone()
	c.AddEdge(1, 0, 1) // creates a cycle only in the clone
	if !g.IsDAG() {
		t.Fatal("mutating clone affected original")
	}
	if c.IsDAG() {
		t.Fatal("clone should have a cycle")
	}
}

func TestTopoSortChain(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 2, 1)
	g.AddEdge(2, 1, 1)
	g.AddEdge(1, 0, 1)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order=%v, want %v", order, want)
		}
	}
}

func TestTopoSortDeterministicTieBreak(t *testing.T) {
	g := New(4)
	g.AddEdge(1, 3, 1)
	g.AddEdge(2, 3, 1)
	// Nodes 0,1,2 are all sources; smallest-first order expected.
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order=%v, want %v", order, want)
		}
	}
}

func TestTopoSortCycleDetected(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1)
	_, err := g.TopoSort()
	ce, ok := err.(*ErrCycle)
	if !ok {
		t.Fatalf("got %v, want *ErrCycle", err)
	}
	if len(ce.Nodes) != 3 {
		t.Fatalf("cycle %v, want length 3", ce.Nodes)
	}
	// The reported cycle must actually be a cycle in g.
	for i := range ce.Nodes {
		u, v := ce.Nodes[i], ce.Nodes[(i+1)%len(ce.Nodes)]
		if !hasEdge(g, u, v) {
			t.Fatalf("reported cycle %v has no edge %d→%d", ce.Nodes, u, v)
		}
	}
}

func TestIsDAGRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		g := New(n)
		// Edges only from lower to higher index: always a DAG.
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) == 0 {
					g.AddEdge(u, v, int64(rng.Intn(5)))
				}
			}
		}
		if !g.IsDAG() {
			t.Fatal("forward-edge graph must be a DAG")
		}
		order, err := g.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		pos := make([]int, n)
		for i, u := range order {
			pos[u] = i
		}
		for _, e := range g.Edges() {
			if pos[e.From] >= pos[e.To] {
				t.Fatalf("edge %v violates topological order", e)
			}
		}
	}
}

func TestDOTContainsNodesAndEdges(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 4)
	dot := g.DOT("g", []string{"a", "b"}, nil)
	for _, want := range []string{"digraph", `label="a"`, `label="b"`, "n0 -> n1", `label="4"`} {
		if !contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
