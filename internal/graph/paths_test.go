package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func diamond() *Digraph {
	// 0 → 1 → 3, 0 → 2 → 3 with asymmetric weights.
	g := New(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 3, 2)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 3, 1)
	return g
}

func TestLongestFrom(t *testing.T) {
	g := diamond()
	d, err := g.LongestFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 2, 1, 4}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("dist=%v, want %v", d, want)
		}
	}
}

func TestLongestFromUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	d, err := g.LongestFrom(1)
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != NoPath || d[2] != NoPath || d[1] != 0 {
		t.Fatalf("dist=%v, want [NoPath 0 NoPath]", d)
	}
}

func TestLongestNegativeWeights(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, -2)
	g.AddEdge(1, 2, -3)
	g.AddEdge(0, 2, -7)
	d, err := g.LongestFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	if d[2] != -5 {
		t.Fatalf("d[2]=%d, want -5 (longest = least negative)", d[2])
	}
}

func TestAllPairsLongest(t *testing.T) {
	g := diamond()
	ap, err := g.LongestAllPairs()
	if err != nil {
		t.Fatal(err)
	}
	if ap.Path(0, 3) != 4 || ap.Path(1, 3) != 2 || ap.Path(3, 0) != NoPath {
		t.Fatalf("all-pairs wrong: %v", ap.D)
	}
	if !ap.Reaches(0, 3) || ap.Reaches(3, 0) || ap.Reaches(1, 1) {
		t.Fatal("Reaches wrong")
	}
}

func TestCriticalPath(t *testing.T) {
	g := diamond()
	length, from, to, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if length != 4 || from != 0 || to != 3 {
		t.Fatalf("critical path = %d (%d→%d), want 4 (0→3)", length, from, to)
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	g := New(1)
	length, from, to, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if length != 0 || from != -1 || to != -1 {
		t.Fatalf("got %d (%d,%d), want 0 (-1,-1)", length, from, to)
	}
}

func TestLongestCycleErrors(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 1)
	if _, err := g.LongestFrom(0); err == nil {
		t.Fatal("expected cycle error")
	}
	if _, err := g.LongestAllPairs(); err == nil {
		t.Fatal("expected cycle error")
	}
}

// randomDAG builds a random layered DAG with forward edges only.
func randomDAG(rng *rand.Rand, n int, p float64, maxW int64) *Digraph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v, rng.Int63n(maxW+1))
			}
		}
	}
	return g
}

// bruteLongest computes longest paths by exhaustive DFS (exponential; tiny n).
func bruteLongest(g *Digraph, src, dst int) int64 {
	if src == dst {
		return 0
	}
	best := NoPath
	var dfs func(u int, acc int64)
	dfs = func(u int, acc int64) {
		if u == dst {
			if acc > best {
				best = acc
			}
			return
		}
		for _, ei := range g.OutEdges(u) {
			e := g.Edge(ei)
			dfs(e.To, acc+e.Weight)
		}
	}
	dfs(src, 0)
	return best
}

func TestLongestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		g := randomDAG(rng, 2+rng.Intn(7), 0.4, 9)
		ap, err := g.LongestAllPairs()
		if err != nil {
			t.Fatal(err)
		}
		for u := range ap.D {
			for v := range ap.D {
				if u == v {
					continue
				}
				if got, want := ap.Path(u, v), bruteLongest(g, u, v); got != want {
					t.Fatalf("lp(%d,%d)=%d, want %d", u, v, got, want)
				}
			}
		}
	}
}

// Property: in any DAG, for every edge (u,v), lp(s,v) ≥ lp(s,u) + w(u,v)
// whenever u is reachable from s.
func TestLongestPathTriangleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 3+rng.Intn(10), 0.3, 12)
		d, err := g.LongestFrom(0)
		if err != nil {
			return false
		}
		for _, e := range g.Edges() {
			if d[e.From] == NoPath {
				continue
			}
			if d[e.To] < d[e.From]+e.Weight {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
