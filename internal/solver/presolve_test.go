package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"regsat/internal/lp"
	"regsat/internal/lp/lptest"
)

// TestPresolveRoundTripRandom: on random integer programs the engine with
// presolve+cuts enabled and disabled must prove the enumerated optimum, and
// every returned incumbent — which passed through postsolve — must satisfy
// the *original* model with the original objective value.
func TestPresolveRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	trials := 300
	if testing.Short() {
		trials = 100
	}
	for trial := 0; trial < trials; trial++ {
		m := randomMILP(rng)
		checkExact(t, fmt.Sprintf("trial %d (presolve+cuts)", trial), m, Options{})
		checkExact(t, fmt.Sprintf("trial %d (raw)", trial), m, Options{DisablePresolve: true, DisableCuts: true})
	}
}

// TestPresolveFixedVariable: a collapsed-bound variable leaves the model,
// its objective contribution moves to the offset, and its value substitutes
// into every row (here turning the row into a singleton that folds into a
// bound). Postsolve restores the original variable order.
func TestPresolveFixedVariable(t *testing.T) {
	m := lp.NewModel("fix", lp.Maximize)
	x := m.NewVar(2, 2, true, "x")
	y := m.NewVar(0, 5, true, "y")
	m.SetObjCoef(x, 3)
	m.SetObjCoef(y, 1)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 6, "c")
	ps := presolve(m, 1e-6, true)
	if ps.infeasible {
		t.Fatal("feasible model presolved to infeasible")
	}
	if ps.colMap[0] != -1 || ps.fixed[0] != 2 {
		t.Fatalf("x not eliminated at 2: colMap=%v fixed=%v", ps.colMap, ps.fixed)
	}
	if ps.m.NumVars() != 1 || ps.m.NumConstrs() != 0 {
		t.Fatalf("reduced model has %d vars, %d rows; want 1, 0", ps.m.NumVars(), ps.m.NumConstrs())
	}
	if off := ps.m.ObjOffset(); off != 6 {
		t.Fatalf("objective offset %g, want 6 (3·x at x=2)", off)
	}
	// The substituted row y ≤ 4 folded into y's upper bound.
	if _, hi := ps.m.Bounds(0); hi != 4 {
		t.Fatalf("y's bound not tightened to 4 (hi=%g)", hi)
	}
	if ps.cols != 1 || ps.rows != 1 {
		t.Fatalf("counters: cols=%d rows=%d, want 1, 1", ps.cols, ps.rows)
	}
	got := ps.postsolve([]float64{4})
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("postsolve([4]) = %v, want [2 4]", got)
	}
}

// TestPresolveInfeasibleBounds: contradictory singleton rows prove
// infeasibility inside presolve.
func TestPresolveInfeasibleBounds(t *testing.T) {
	m := lp.NewModel("inf", lp.Minimize)
	x := m.NewVar(0, 5, true, "x")
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}}, lp.GE, 3, "ge")
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}}, lp.LE, 2, "le")
	ps := presolve(m, 1e-6, true)
	if !ps.infeasible {
		t.Fatal("x ≥ 3 ∧ x ≤ 2 not detected infeasible")
	}
}

// TestPresolveDuplicateRows: identical term vectors merge, keeping the
// tightest right-hand side; the reduced model still has the original
// optimum (modulo the offset the reduction moved).
func TestPresolveDuplicateRows(t *testing.T) {
	m := lp.NewModel("dup", lp.Maximize)
	x := m.NewVar(0, 10, true, "x")
	y := m.NewVar(0, 10, true, "y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 1)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 5, "loose")
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 3, "tight")
	ps := presolve(m, 1e-6, true)
	if ps.infeasible {
		t.Fatal("feasible model presolved to infeasible")
	}
	if ps.rows < 1 {
		t.Fatalf("duplicate row not merged (rows removed: %d)", ps.rows)
	}
	if ref := lptest.MustEnumerate(t, ps.m); !ref.Feasible || ref.Obj != 3 {
		t.Fatalf("reduced model optimum %+v, want 3", ref)
	}
}

// TestPresolveCoefficientTightening: the Savelsbergh transform on
// 3x + 2y ≤ 4 over binaries yields x + y ≤ 1 — the same integer set
// {00, 10, 01} as a strictly tighter LP relaxation (the clique form).
func TestPresolveCoefficientTightening(t *testing.T) {
	m := lp.NewModel("coef", lp.Maximize)
	x := m.NewBinary("x")
	y := m.NewBinary("y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 1)
	m.AddConstr([]lp.Term{{Var: x, Coef: 3}, {Var: y, Coef: 2}}, lp.LE, 4, "c")
	ps := presolve(m, 1e-6, true)
	if ps.infeasible {
		t.Fatal("feasible model presolved to infeasible")
	}
	if ps.m.NumConstrs() != 1 {
		t.Fatalf("reduced model has %d rows, want 1", ps.m.NumConstrs())
	}
	terms, rel, rhs := ps.m.Constr(0)
	if rel != lp.LE || rhs != 1 || len(terms) != 2 || terms[0].Coef != 1 || terms[1].Coef != 1 {
		t.Fatalf("tightened row is %v %v %g, want x + y ≤ 1", terms, rel, rhs)
	}
	if ps.tightenings < 2 {
		t.Fatalf("tightenings=%d, want ≥ 2 (both coefficients)", ps.tightenings)
	}
	sol := solveWith(t, m, Options{})
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Obj-1) > 1e-6 {
		t.Fatalf("optimum %v/%g, want optimal 1", sol.Status, sol.Obj)
	}
}

// TestPresolveDisabled: with reductions off the pass still re-emits an
// owned identity copy — same dimensions, identity column map.
func TestPresolveDisabled(t *testing.T) {
	m := knapsack()
	ps := presolve(m, 1e-6, false)
	if ps.infeasible {
		t.Fatal("identity presolve reported infeasible")
	}
	if ps.m == m {
		t.Fatal("identity presolve returned the caller's model, not a copy")
	}
	if ps.m.NumVars() != m.NumVars() || ps.m.NumConstrs() != m.NumConstrs() {
		t.Fatalf("identity copy changed dimensions: %dx%d vs %dx%d",
			ps.m.NumVars(), ps.m.NumConstrs(), m.NumVars(), m.NumConstrs())
	}
	for j := range ps.colMap {
		if ps.colMap[j] != j {
			t.Fatalf("colMap[%d]=%d, want identity", j, ps.colMap[j])
		}
	}
	if ps.rows != 0 || ps.cols != 0 || ps.tightenings != 0 {
		t.Fatalf("identity presolve reported work: %+v", ps.stats())
	}
}

// TestPresolveStatsSurface: a model presolve can shrink must report the
// reductions through Solution.Stats.
func TestPresolveStatsSurface(t *testing.T) {
	m := lp.NewModel("stats", lp.Maximize)
	x := m.NewVar(3, 3, true, "x") // fixed
	y := m.NewVar(0, 9, true, "y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 2)
	m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 8, "c")
	sol := solveWith(t, m, Options{})
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Obj-13) > 1e-6 {
		t.Fatalf("optimum %v/%g, want optimal 13", sol.Status, sol.Obj)
	}
	if sol.X[0] != 3 || sol.X[1] != 5 {
		t.Fatalf("x=%v, want [3 5]", sol.X)
	}
	if sol.Stats.PresolveCols == 0 {
		t.Fatalf("fixed column not counted in stats: %+v", sol.Stats)
	}
}
