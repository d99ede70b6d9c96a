package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMaxMatchingSimple(t *testing.T) {
	// Perfect matching on K2,2.
	b := NewBipartite(2, 2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(1, 1)
	m := b.MaxMatching()
	if m.Size != 2 {
		t.Fatalf("matching=%d, want 2", m.Size)
	}
}

func TestMaxMatchingStar(t *testing.T) {
	// All left vertices fight over one right vertex.
	b := NewBipartite(3, 1)
	b.AddEdge(0, 0)
	b.AddEdge(1, 0)
	b.AddEdge(2, 0)
	m := b.MaxMatching()
	if m.Size != 1 {
		t.Fatalf("matching=%d, want 1", m.Size)
	}
}

func TestMaxMatchingAugmenting(t *testing.T) {
	// Classic case needing an augmenting path: greedy could pick (0,0) and
	// block a perfect matching.
	b := NewBipartite(2, 2)
	b.AddEdge(0, 0)
	b.AddEdge(1, 0)
	b.AddEdge(1, 1)
	m := b.MaxMatching()
	if m.Size != 2 {
		t.Fatalf("matching=%d, want 2", m.Size)
	}
	if m.MatchL[0] != 0 || m.MatchL[1] != 1 {
		t.Fatalf("MatchL=%v, want [0 1]", m.MatchL)
	}
}

// bruteMatching finds the true maximum matching by exhaustive search.
func bruteMatching(b *Bipartite) int {
	usedR := make([]bool, b.NR)
	var rec func(u int) int
	rec = func(u int) int {
		if u == b.NL {
			return 0
		}
		best := rec(u + 1) // leave u unmatched
		for _, v := range b.Adj[u] {
			if !usedR[v] {
				usedR[v] = true
				if r := 1 + rec(u+1); r > best {
					best = r
				}
				usedR[v] = false
			}
		}
		return best
	}
	return rec(0)
}

func TestMaxMatchingMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		nL, nR := 1+rng.Intn(6), 1+rng.Intn(6)
		b := NewBipartite(nL, nR)
		for u := 0; u < nL; u++ {
			for v := 0; v < nR; v++ {
				if rng.Intn(3) == 0 {
					b.AddEdge(u, v)
				}
			}
		}
		m := b.MaxMatching()
		if want := bruteMatching(b); m.Size != want {
			t.Fatalf("matching=%d, want %d", m.Size, want)
		}
		// Consistency of MatchL/MatchR.
		for u, v := range m.MatchL {
			if v != -1 && m.MatchR[v] != u {
				t.Fatal("MatchL/MatchR inconsistent")
			}
		}
	}
}

func TestMinVertexCoverIsCoverOfMatchingSize(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		nL, nR := 1+rng.Intn(6), 1+rng.Intn(6)
		b := NewBipartite(nL, nR)
		for u := 0; u < nL; u++ {
			for v := 0; v < nR; v++ {
				if rng.Intn(3) == 0 {
					b.AddEdge(u, v)
				}
			}
		}
		m := b.MaxMatching()
		coverL, coverR := b.MinVertexCover(m)
		size := 0
		for _, c := range coverL {
			if c {
				size++
			}
		}
		for _, c := range coverR {
			if c {
				size++
			}
		}
		if size != m.Size {
			t.Fatalf("König: cover size %d != matching size %d", size, m.Size)
		}
		for u := 0; u < nL; u++ {
			for _, v := range b.Adj[u] {
				if !coverL[u] && !coverR[v] {
					t.Fatalf("edge (%d,%d) uncovered", u, v)
				}
			}
		}
	}
}

func chainOrder(n int) *Order {
	o := NewOrder(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			o.SetLess(a, b)
		}
	}
	return o
}

func TestMaximumAntichainChain(t *testing.T) {
	o := chainOrder(5)
	res := o.MaximumAntichain()
	if res.Size != 1 || len(res.Members) != 1 {
		t.Fatalf("chain antichain=%d %v, want size 1", res.Size, res.Members)
	}
	if len(res.ChainCover) != 1 || len(res.ChainCover[0]) != 5 {
		t.Fatalf("chain cover %v, want single 5-chain", res.ChainCover)
	}
}

func TestMaximumAntichainEmptyOrder(t *testing.T) {
	o := NewOrder(4)
	res := o.MaximumAntichain()
	if res.Size != 4 || len(res.Members) != 4 {
		t.Fatalf("antichain=%d, want 4 (all incomparable)", res.Size)
	}
}

func TestMaximumAntichainTwoChains(t *testing.T) {
	// Two disjoint chains of length 3: width 2.
	o := NewOrder(6)
	o.SetLess(0, 1)
	o.SetLess(1, 2)
	o.SetLess(0, 2)
	o.SetLess(3, 4)
	o.SetLess(4, 5)
	o.SetLess(3, 5)
	res := o.MaximumAntichain()
	if res.Size != 2 {
		t.Fatalf("antichain=%d, want 2", res.Size)
	}
	if !o.IsAntichain(res.Members) {
		t.Fatalf("members %v not an antichain", res.Members)
	}
	if len(res.ChainCover) != 2 {
		t.Fatalf("chain cover %v, want 2 chains", res.ChainCover)
	}
}

func TestTransitiveClose(t *testing.T) {
	o := NewOrder(3)
	o.SetLess(0, 1)
	o.SetLess(1, 2)
	o.TransitiveClose()
	if !o.Less(0, 2) {
		t.Fatal("transitive closure missed 0<2")
	}
	if o.Less(2, 0) || o.Less(0, 0) {
		t.Fatal("closure introduced wrong pairs")
	}
}

// bruteAntichain finds the maximum antichain by subset enumeration.
func bruteAntichain(o *Order) int {
	n := o.N()
	best := 0
	for mask := 0; mask < (1 << n); mask++ {
		var elems []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				elems = append(elems, i)
			}
		}
		if len(elems) > best && o.IsAntichain(elems) {
			best = len(elems)
		}
	}
	return best
}

// Property: Dilworth antichain equals brute-force maximum antichain on random
// DAG-induced orders, and the returned members really are an antichain of
// that size, and the chain cover partitions all elements into Size chains.
func TestMaximumAntichainMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(9)
		g := randomDAG(rng, n, 0.35, 3)
		c, err := g.TransitiveClosure()
		if err != nil {
			return false
		}
		o := NewOrder(n)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if c.Reaches(a, b) {
					o.SetLess(a, b)
				}
			}
		}
		res := o.MaximumAntichain()
		if res.Size != bruteAntichain(o) {
			return false
		}
		if len(res.Members) != res.Size || !o.IsAntichain(res.Members) {
			return false
		}
		if len(res.ChainCover) != res.Size {
			return false
		}
		seen := make([]bool, n)
		for _, chain := range res.ChainCover {
			for i, e := range chain {
				if seen[e] {
					return false
				}
				seen[e] = true
				if i > 0 && !o.Less(chain[i-1], e) {
					return false // not actually a chain
				}
			}
		}
		for _, s := range seen {
			if !s {
				return false // not a partition
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
