package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitSetBasics(t *testing.T) {
	b := NewBitSet(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("Set/Get wrong")
	}
	if b.Count() != 3 {
		t.Fatalf("Count=%d, want 3", b.Count())
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 2 {
		t.Fatal("Clear wrong")
	}
	other := NewBitSet(130)
	other.Set(5)
	b.OrWith(other)
	if !b.Get(5) || b.Count() != 3 {
		t.Fatal("OrWith wrong")
	}
}

func TestTransitiveClosureChain(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	c, err := g.TransitiveClosure()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Reaches(0, 3) || !c.Reaches(1, 3) || c.Reaches(3, 0) || c.Reaches(2, 2) {
		t.Fatal("closure relation wrong")
	}
	if c.Reaches(1, 0) || !c.Reaches(1, 2) || !c.Reaches(1, 3) {
		t.Fatal("descendants of 1 wrong")
	}
	if !c.Comparable(0, 3) || c.Comparable(0, 0) {
		t.Fatal("Comparable wrong")
	}
}

func TestTransitiveClosureMatchesAllPairs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(12), 0.3, 5)
		c, err := g.TransitiveClosure()
		if err != nil {
			return false
		}
		ap, err := g.LongestAllPairs()
		if err != nil {
			return false
		}
		for u := range ap.D {
			for v := range ap.D {
				if u == v {
					continue
				}
				if c.Reaches(u, v) != ap.Reaches(u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransitiveReductionDropsRedundantEdge(t *testing.T) {
	// 0→1 (5), 1→2 (5), plus direct 0→2 (3). The direct edge is dominated by
	// the path of weight 10, so it is redundant for scheduling constraints.
	g := New(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 5)
	direct := g.AddEdge(0, 2, 3)
	red, err := g.TransitiveReduction()
	if err != nil {
		t.Fatal(err)
	}
	if len(red) != 1 || red[0] != direct {
		t.Fatalf("redundant=%v, want [%d]", red, direct)
	}
}

func TestTransitiveReductionKeepsBindingEdge(t *testing.T) {
	// Direct edge weight 20 exceeds the alternative path weight 10: binding.
	g := New(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 5)
	g.AddEdge(0, 2, 20)
	red, err := g.TransitiveReduction()
	if err != nil {
		t.Fatal(err)
	}
	if len(red) != 0 {
		t.Fatalf("redundant=%v, want none", red)
	}
}

// Property: removing the reduction-reported edges never changes any
// longest-path distance.
func TestTransitiveReductionPreservesLongestPaths(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 3+rng.Intn(8), 0.5, 6)
		before, err := g.LongestAllPairs()
		if err != nil {
			return false
		}
		red, err := g.TransitiveReduction()
		if err != nil {
			return false
		}
		h := g.Clone()
		h.RemoveEdges(red)
		after, err := h.LongestAllPairs()
		if err != nil {
			return false
		}
		for u := range before.D {
			for v := range before.D {
				if before.Path(u, v) != after.Path(u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
