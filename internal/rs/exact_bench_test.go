package rs

import (
	"math/rand"
	"testing"

	"regsat/internal/ddg"
)

// benchCases collects the multi-killer analyses the exact search actually
// branches on: every corpus case with more than one killing function, plus
// denser random DAGs whose trees are deep enough to expose the per-node
// cost.
func benchCases(b *testing.B) []*Analysis {
	var cases []*Analysis
	for _, g := range loadCorpus(b) {
		for _, typ := range g.Types() {
			an, err := NewAnalysis(g, typ)
			if err != nil {
				b.Fatal(err)
			}
			if an.NumKillingFunctions() > 1 {
				cases = append(cases, an)
			}
		}
	}
	rng := rand.New(rand.NewSource(2004))
	for _, n := range []int{14, 18, 22, 26} {
		p := ddg.DefaultRandomParams(n)
		p.EdgeProb = 0.15
		p.ValueProb = 0.95
		g := ddg.RandomGraph(rng, p)
		an, err := NewAnalysis(g, ddg.Float)
		if err != nil {
			b.Fatal(err)
		}
		if an.NumKillingFunctions() > 1 {
			cases = append(cases, an)
		}
	}
	if len(cases) == 0 {
		b.Fatal("no multi-killer cases")
	}
	return cases
}

// BenchmarkExactBB measures the incremental exact search over the
// multi-killer corpus (the acceptance benchmark of the incremental engine).
func BenchmarkExactBB(b *testing.B) {
	cases := benchCases(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, an := range cases {
			if _, _, err := ExactBB(an, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExactBBReference measures the retained from-scratch search (a
// digraph rebuild plus a full all-pairs longest-path solve per node) on the
// same cases — the pre-refactor baseline BenchmarkExactBB is compared
// against.
func BenchmarkExactBBReference(b *testing.B) {
	cases := benchCases(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, an := range cases {
			if _, _, err := exactBBReference(an, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGreedyK measures the heuristic on the same cases (it shares the
// incremental evaluator).
func BenchmarkGreedyK(b *testing.B) {
	cases := benchCases(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, an := range cases {
			if _, err := Greedy(an); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkGreedyLarge measures Greedy-k on 600–1000-node random blocks, the
// sizes the daemon serves with the heuristic because exact RS is out of
// reach. Allocations are reported: the evaluator's working matrix is pooled,
// so a steady-state run should allocate far less than n²·8 bytes per graph.
func BenchmarkGreedyLarge(b *testing.B) {
	rng := rand.New(rand.NewSource(1000))
	var cases []*Analysis
	for _, n := range []int{600, 800, 1000} {
		p := ddg.DefaultRandomParams(n)
		p.EdgeProb = 6.0 / float64(n)
		p.Types = []ddg.RegType{ddg.Int, ddg.Float}
		g := ddg.RandomGraph(rng, p)
		for _, typ := range g.Types() {
			an, err := NewAnalysis(g, typ)
			if err != nil {
				b.Fatal(err)
			}
			cases = append(cases, an)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, an := range cases {
			if _, err := Greedy(an); err != nil {
				b.Fatal(err)
			}
		}
	}
}
