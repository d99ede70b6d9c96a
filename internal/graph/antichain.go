package graph

// Order is a strict partial order over elements 0..n-1, represented by a
// transitively closed "less" relation. Less(a, b) must imply !Less(b, a),
// and Less must be transitive; MaximumAntichain relies on both.
type Order struct {
	n    int
	less []BitSet
}

// NewOrder creates an empty order over n elements (no pair related).
func NewOrder(n int) *Order {
	o := &Order{n: n, less: make([]BitSet, n)}
	for i := range o.less {
		o.less[i] = NewBitSet(n)
	}
	return o
}

// OrderFromRows wraps existing "less" bitset rows (row i holds the elements
// greater than i) as an Order without copying. The caller must not mutate
// the rows while the returned order is in use.
func OrderFromRows(rows []BitSet) *Order {
	return &Order{n: len(rows), less: rows}
}

// N returns the number of elements.
func (o *Order) N() int { return o.n }

// SetLess records a < b. The caller is responsible for transitivity (or may
// call TransitiveClose afterwards).
func (o *Order) SetLess(a, b int) { o.less[a].Set(b) }

// Less reports whether a < b.
func (o *Order) Less(a, b int) bool { return a != b && o.less[a].Get(b) }

// Comparable reports whether a < b or b < a.
func (o *Order) Comparable(a, b int) bool { return o.Less(a, b) || o.Less(b, a) }

// TransitiveClose closes the relation under transitivity using bit-parallel
// propagation. It runs a fixpoint that is O(n²·n/64) worst case but converges
// in one pass when SetLess calls already follow a topological order.
func (o *Order) TransitiveClose() {
	changed := true
	for changed {
		changed = false
		for a := 0; a < o.n; a++ {
			row := o.less[a]
			for b := 0; b < o.n; b++ {
				if b != a && row.Get(b) {
					before := countOnes(row)
					row.OrWith(o.less[b])
					row.Clear(a) // keep the order strict
					if countOnes(row) != before {
						changed = true
					}
				}
			}
		}
	}
}

func countOnes(b BitSet) int { return b.Count() }

// AntichainResult is the outcome of a maximum-antichain computation.
type AntichainResult struct {
	// Size is the width of the order (maximum antichain cardinality).
	Size int
	// Members lists one maximum antichain, in increasing element order.
	Members []int
	// ChainCover is a partition of the elements into Size chains, each chain
	// listed in increasing order position. By Dilworth's theorem the minimum
	// number of chains equals the maximum antichain size.
	ChainCover [][]int
}

// MaximumAntichain computes a maximum antichain of the order using Dilworth's
// theorem: minimum chain cover = n − maximum matching in the bipartite graph
// with an edge (a,b) per ordered pair a < b; the antichain is recovered from
// a König minimum vertex cover (elements with neither copy in the cover).
func (o *Order) MaximumAntichain() *AntichainResult {
	b := NewBipartite(o.n, o.n)
	for a := 0; a < o.n; a++ {
		for c := 0; c < o.n; c++ {
			if o.Less(a, c) {
				b.AddEdge(a, c)
			}
		}
	}
	m := b.MaxMatching()
	coverL, coverR := b.MinVertexCover(m)

	res := &AntichainResult{Size: o.n - m.Size}
	for i := 0; i < o.n; i++ {
		if !coverL[i] && !coverR[i] {
			res.Members = append(res.Members, i)
		}
	}
	// Chains: matched pairs a→MatchL[a] link consecutive chain elements.
	startOf := make([]bool, o.n)
	for i := range startOf {
		startOf[i] = true
	}
	for a := 0; a < o.n; a++ {
		if m.MatchL[a] != -1 {
			startOf[m.MatchL[a]] = false
		}
	}
	for a := 0; a < o.n; a++ {
		if !startOf[a] {
			continue
		}
		chain := []int{a}
		for cur := a; m.MatchL[cur] != -1; {
			cur = m.MatchL[cur]
			chain = append(chain, cur)
		}
		res.ChainCover = append(res.ChainCover, chain)
	}
	return res
}

// IsAntichain reports whether the given elements are pairwise incomparable.
func (o *Order) IsAntichain(elems []int) bool {
	for i := 0; i < len(elems); i++ {
		for j := i + 1; j < len(elems); j++ {
			if o.Comparable(elems[i], elems[j]) {
				return false
			}
		}
	}
	return true
}
