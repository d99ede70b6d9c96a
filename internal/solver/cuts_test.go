package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"regsat/internal/lp"
	"regsat/internal/lp/lptest"
)

// conflictModel builds maximize Σ c_i x_i over binaries with a pairwise
// row x_i + x_j ≤ 1 per conflict edge.
func conflictModel(obj []float64, edges [][2]int) *lp.Model {
	m := lp.NewModel("conflict", lp.Maximize)
	for _, c := range obj {
		m.SetObjCoef(m.NewBinary("x"), c)
	}
	for _, e := range edges {
		m.AddConstr([]lp.Term{{Var: lp.Var(e[0]), Coef: 1}, {Var: lp.Var(e[1]), Coef: 1}},
			lp.LE, 1, "conflict")
	}
	return m
}

// TestCliqueCutsSeparatedAtRoot: on a full conflict graph the pairwise LP
// relaxation sits at x = 1/2 everywhere, so the hinted clique over all
// members is violated at the root and must be separated; the integer
// optimum is unchanged.
func TestCliqueCutsSeparatedAtRoot(t *testing.T) {
	const k = 6
	obj := make([]float64, k)
	var edges [][2]int
	var cliqueVars []lp.Var
	for i := 0; i < k; i++ {
		obj[i] = 1
		cliqueVars = append(cliqueVars, lp.Var(i))
		for j := i + 1; j < k; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	m := conflictModel(obj, edges)
	ref := lptest.MustEnumerate(t, m)
	hints := &Hints{Cliques: []Clique{{Name: "all", Vars: cliqueVars, RHS: 1}}}
	for _, w := range widths {
		sol := solveWith(t, m, Options{Hints: hints, Parallel: w})
		requireOptimum(t, fmt.Sprintf("with cuts [parallel=%d]", w), m, ref, sol)
		if sol.Stats.CutsAdded == 0 {
			t.Fatalf("parallel=%d: violated clique not separated at the root: %+v", w, sol.Stats)
		}
		if sol.Stats.CutsActive == 0 {
			t.Fatalf("parallel=%d: the cut is tight at every maximal incumbent but CutsActive=0: %+v", w, sol.Stats)
		}
	}
}

// randomConflict builds a conflict model over 6–13 binaries with a random
// conflict graph, and hints every triangle of that graph as a clique (its
// three pairwise rows enforce it, so each hint is a valid inequality).
func randomConflict(rng *rand.Rand) (*lp.Model, []Clique) {
	nv := 6 + rng.Intn(8)
	obj := make([]float64, nv)
	for i := range obj {
		obj[i] = float64(1 + rng.Intn(9))
	}
	adj := make([]bool, nv*nv)
	var edges [][2]int
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			if rng.Intn(3) > 0 {
				adj[i*nv+j] = true
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	var cliques []Clique
	for i := 0; i < nv; i++ {
		for j := i + 1; j < nv; j++ {
			for k := j + 1; k < nv; k++ {
				if adj[i*nv+j] && adj[i*nv+k] && adj[j*nv+k] {
					cliques = append(cliques, Clique{
						Name: "tri",
						Vars: []lp.Var{lp.Var(i), lp.Var(j), lp.Var(k)},
						RHS:  1,
					})
				}
			}
		}
	}
	return conflictModel(obj, edges), cliques
}

// TestCliqueHintsAgreeRandom is the cut-validity property test: hinting the
// triangles of random conflict graphs must never change the proven optimum
// at any tree-search width, only the work to reach it. (The returned point
// satisfies every row, and the rows imply every hinted clique.)
func TestCliqueHintsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trials := 60
	if testing.Short() {
		trials = 20
	}
	for trial := 0; trial < trials; trial++ {
		m, cliques := randomConflict(rng)
		ref := lptest.MustEnumerate(t, m)
		for _, w := range widths {
			sol := solveWith(t, m, Options{Hints: &Hints{Cliques: cliques}, Parallel: w})
			requireOptimum(t, fmt.Sprintf("trial %d with %d hinted triangles [parallel=%d]", trial, len(cliques), w), m, ref, sol)
		}
	}
}

// TestRemapCliquesFolding: the presolve column map folds fixed variables
// out of hinted cliques — ones consume right-hand side, zeros drop out —
// and contradictions surface as infeasibility.
func TestRemapCliquesFolding(t *testing.T) {
	build := func(lo0, hi0, lo1, hi1 float64) *presolved {
		m := lp.NewModel("remap", lp.Maximize)
		m.NewVar(lo0, hi0, true, "a")
		m.NewVar(lo1, hi1, true, "b")
		m.NewBinary("c")
		m.NewBinary("d")
		for v := 0; v < 4; v++ {
			m.SetObjCoef(lp.Var(v), 1)
		}
		return presolve(m, 1e-6, true)
	}
	clique := func(rhs int, vars ...lp.Var) *Hints {
		return &Hints{Cliques: []Clique{{Name: "q", Vars: vars, RHS: rhs}}}
	}

	// a fixed at 1: the clique loses a column and one unit of rhs.
	ps := build(1, 1, 0, 1)
	got, infeasible := remapCliques(clique(1, 0, 1, 2, 3), ps)
	if infeasible || len(got) != 1 {
		t.Fatalf("fixed-one fold: got %d cliques, infeasible=%v", len(got), infeasible)
	}
	if got[0].rhs != 0 || len(got[0].cols) != 3 {
		t.Fatalf("fixed-one fold: rhs=%g cols=%v, want rhs 0 over 3 columns", got[0].rhs, got[0].cols)
	}

	// a and b both fixed at 1 with rhs 1: -1 remaining — infeasible.
	ps = build(1, 1, 1, 1)
	if _, infeasible = remapCliques(clique(1, 0, 1, 2, 3), ps); !infeasible {
		t.Fatal("two ones in a rhs-1 clique not flagged infeasible")
	}

	// a fixed at 0: drops out without touching the rhs.
	ps = build(0, 0, 0, 1)
	got, infeasible = remapCliques(clique(1, 0, 1, 2, 3), ps)
	if infeasible || len(got) != 1 || got[0].rhs != 1 || len(got[0].cols) != 3 {
		t.Fatalf("fixed-zero fold: got %+v, infeasible=%v", got, infeasible)
	}

	// Slack cliques (rhs covers all members) and sub-pair remnants discard.
	ps = build(0, 1, 0, 1)
	if got, _ = remapCliques(clique(4, 0, 1, 2, 3), ps); len(got) != 0 {
		t.Fatalf("slack clique not discarded: %+v", got)
	}

	// Duplicates collapse; output order is deterministic.
	ps = build(0, 1, 0, 1)
	h := &Hints{Cliques: []Clique{
		{Name: "q1", Vars: []lp.Var{2, 3, 0}, RHS: 1},
		{Name: "q2", Vars: []lp.Var{0, 2, 3}, RHS: 1},
		{Name: "q3", Vars: []lp.Var{1, 2, 3}, RHS: 1},
	}}
	got, infeasible = remapCliques(h, ps)
	if infeasible || len(got) != 2 {
		t.Fatalf("dedup: got %d cliques, want 2", len(got))
	}
	if got[0].cols[0] > got[1].cols[0] {
		t.Fatalf("remapped cliques not in deterministic order: %v, %v", got[0].cols, got[1].cols)
	}
}

// TestRemapCliquesNonBinary: a clique touching a general-integer column is
// disqualified rather than emitted unsoundly.
func TestRemapCliquesNonBinary(t *testing.T) {
	m := lp.NewModel("nonbin", lp.Maximize)
	m.NewVar(0, 3, true, "g")
	m.NewBinary("x")
	m.NewBinary("y")
	ps := presolve(m, 1e-6, true)
	h := &Hints{Cliques: []Clique{{Name: "bad", Vars: []lp.Var{0, 1, 2}, RHS: 1}}}
	got, infeasible := remapCliques(h, ps)
	if infeasible || len(got) != 0 {
		t.Fatalf("clique over a [0,3] integer survived remap: %+v", got)
	}
}

// TestCutsDisabled: DisableCuts must suppress separation entirely.
func TestCutsDisabled(t *testing.T) {
	const k = 5
	obj := make([]float64, k)
	var edges [][2]int
	var vars []lp.Var
	for i := 0; i < k; i++ {
		obj[i] = 1
		vars = append(vars, lp.Var(i))
		for j := i + 1; j < k; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	hints := &Hints{Cliques: []Clique{{Name: "all", Vars: vars, RHS: 1}}}
	sol := solveWith(t, conflictModel(obj, edges), Options{Hints: hints, DisableCuts: true})
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Obj-1) > 1e-6 {
		t.Fatalf("optimum %v/%g, want optimal 1", sol.Status, sol.Obj)
	}
	if sol.Stats.CutsAdded != 0 {
		t.Fatalf("cuts added with DisableCuts: %+v", sol.Stats)
	}
}
