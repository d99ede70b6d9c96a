package lp_test

// The solve cases of the model layer, run through the MILP engine of
// internal/solver at one and three tree-search workers: pure LPs (bound
// flips, fixed and negative-lower-bound variables, degenerate, redundant and
// equality-only systems, zero rows) and MILPs (knapsacks, general-integer
// branching, node limits), with hand-computed optima, plus random
// pure-integer programs against exhaustive enumeration.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"regsat/internal/lp"
	"regsat/internal/lp/lptest"
	"regsat/internal/solver"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func term(v lp.Var, c float64) lp.Term { return lp.Term{Var: v, Coef: c} }

// solve runs m at one and three tree-search workers, requires the two to
// agree on status and objective, and returns the sequential solution.
func solve(t *testing.T, m *lp.Model, opt solver.Options) *solver.Solution {
	t.Helper()
	var first *solver.Solution
	for _, w := range []int{1, 3} {
		opt.Parallel = w
		sol, err := solver.Solve(context.Background(), m, opt)
		if err != nil {
			t.Fatalf("parallel=%d: %v", w, err)
		}
		if first == nil {
			first = sol
			continue
		}
		if !sol.Capped && !first.Capped &&
			(sol.Status != first.Status || (sol.Feasible() && !almostEq(sol.Obj, first.Obj))) {
			t.Fatalf("parallel=%d: %v/%g, parallel=1: %v/%g", w, sol.Status, sol.Obj, first.Status, first.Obj)
		}
	}
	return first
}

func TestSolveLPSimpleMax(t *testing.T) {
	// max 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6, 0 ≤ x,y ≤ 10. Optimum (4,0) = 12.
	m := lp.NewModel("simple", lp.Maximize)
	x := m.NewVar(0, 10, false, "x")
	y := m.NewVar(0, 10, false, "y")
	m.SetObjCoef(x, 3)
	m.SetObjCoef(y, 2)
	m.AddConstr([]lp.Term{term(x, 1), term(y, 1)}, lp.LE, 4, "c1")
	m.AddConstr([]lp.Term{term(x, 1), term(y, 3)}, lp.LE, 6, "c2")
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status=%v", sol.Status)
	}
	if !almostEq(sol.Obj, 12) {
		t.Fatalf("obj=%g, want 12", sol.Obj)
	}
}

func TestSolveLPClassic(t *testing.T) {
	// max 5x + 4y s.t. 6x + 4y ≤ 24, x + 2y ≤ 6. Optimum (3, 1.5) = 21.
	m := lp.NewModel("classic", lp.Maximize)
	x := m.NewVar(0, 100, false, "x")
	y := m.NewVar(0, 100, false, "y")
	m.SetObjCoef(x, 5)
	m.SetObjCoef(y, 4)
	m.AddConstr([]lp.Term{term(x, 6), term(y, 4)}, lp.LE, 24, "c1")
	m.AddConstr([]lp.Term{term(x, 1), term(y, 2)}, lp.LE, 6, "c2")
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 21) {
		t.Fatalf("status=%v obj=%g, want optimal 21", sol.Status, sol.Obj)
	}
	if !almostEq(sol.X[x], 3) || !almostEq(sol.X[y], 1.5) {
		t.Fatalf("x=%g y=%g, want 3, 1.5", sol.X[x], sol.X[y])
	}
}

func TestSolveLPWithGEAndEQ(t *testing.T) {
	// min x + y s.t. x + y ≥ 3, x − y = 1, bounds [0, 10]. Optimum (2,1) = 3.
	m := lp.NewModel("ge-eq", lp.Minimize)
	x := m.NewVar(0, 10, false, "x")
	y := m.NewVar(0, 10, false, "y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 1)
	m.AddConstr([]lp.Term{term(x, 1), term(y, 1)}, lp.GE, 3, "c1")
	m.AddConstr([]lp.Term{term(x, 1), term(y, -1)}, lp.EQ, 1, "c2")
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 3) {
		t.Fatalf("status=%v obj=%g, want optimal 3", sol.Status, sol.Obj)
	}
	if !almostEq(sol.X[x], 2) || !almostEq(sol.X[y], 1) {
		t.Fatalf("x=%g y=%g, want 2, 1", sol.X[x], sol.X[y])
	}
}

func TestSolveLPNonzeroLowerBounds(t *testing.T) {
	// min x s.t. x + y ≥ 10, y ≤ 4, x ∈ [2, 20], y ∈ [3, 20]. Optimum x=6.
	m := lp.NewModel("bounds", lp.Minimize)
	x := m.NewVar(2, 20, false, "x")
	y := m.NewVar(3, 20, false, "y")
	m.SetObjCoef(x, 1)
	m.AddConstr([]lp.Term{term(x, 1), term(y, 1)}, lp.GE, 10, "c1")
	m.AddConstr([]lp.Term{term(y, 1)}, lp.LE, 4, "c2")
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 6) {
		t.Fatalf("status=%v obj=%g x=%v, want optimal 6", sol.Status, sol.Obj, sol.X)
	}
}

func TestSolveLPInfeasible(t *testing.T) {
	m := lp.NewModel("infeasible", lp.Minimize)
	x := m.NewVar(0, 1, false, "x")
	m.AddConstr([]lp.Term{term(x, 1)}, lp.GE, 5, "impossible")
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusInfeasible {
		t.Fatalf("status=%v, want infeasible", sol.Status)
	}
}

func TestSolveLPEqualityOnly(t *testing.T) {
	// x + y = 2, x − y = 0 → x = y = 1.
	m := lp.NewModel("eq", lp.Minimize)
	x := m.NewVar(-5, 5, false, "x")
	y := m.NewVar(-5, 5, false, "y")
	m.SetObjCoef(x, 1)
	m.AddConstr([]lp.Term{term(x, 1), term(y, 1)}, lp.EQ, 2, "c1")
	m.AddConstr([]lp.Term{term(x, 1), term(y, -1)}, lp.EQ, 0, "c2")
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.X[x], 1) || !almostEq(sol.X[y], 1) {
		t.Fatalf("status=%v x=%v, want x=y=1", sol.Status, sol.X)
	}
}

func TestSolveLPRedundantRows(t *testing.T) {
	// Duplicate equalities: the second row is twice the first.
	m := lp.NewModel("redundant", lp.Maximize)
	x := m.NewVar(0, 10, false, "x")
	m.SetObjCoef(x, 1)
	m.AddConstr([]lp.Term{term(x, 1)}, lp.EQ, 4, "c1")
	m.AddConstr([]lp.Term{term(x, 2)}, lp.EQ, 8, "c2")
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 4) {
		t.Fatalf("status=%v obj=%g, want optimal 4", sol.Status, sol.Obj)
	}
}

func TestSolveKnapsack(t *testing.T) {
	// Classic 0/1 knapsack: values 60,100,120; weights 10,20,30; cap 50 → 220.
	m := lp.NewModel("knapsack", lp.Maximize)
	vals := []float64{60, 100, 120}
	wts := []float64{10, 20, 30}
	vars := make([]lp.Var, 3)
	terms := make([]lp.Term, 3)
	for i := range vals {
		vars[i] = m.NewBinary("item")
		m.SetObjCoef(vars[i], vals[i])
		terms[i] = term(vars[i], wts[i])
	}
	m.AddConstr(terms, lp.LE, 50, "cap")
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 220) {
		t.Fatalf("status=%v obj=%g, want optimal 220", sol.Status, sol.Obj)
	}
	if sol.IntValue(vars[0]) != 0 || sol.IntValue(vars[1]) != 1 || sol.IntValue(vars[2]) != 1 {
		t.Fatalf("selection=%v, want items 1 and 2", sol.X)
	}
}

func TestSolveIntegerRounding(t *testing.T) {
	// LP optimum is fractional; integer optimum differs.
	// max x + y s.t. 2x + y ≤ 3, x + 2y ≤ 3, x,y ∈ {0,1,2}. LP opt (1,1)=2.
	m := lp.NewModel("round", lp.Maximize)
	x := m.NewVar(0, 2, true, "x")
	y := m.NewVar(0, 2, true, "y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 1)
	m.AddConstr([]lp.Term{term(x, 2), term(y, 1)}, lp.LE, 3, "c1")
	m.AddConstr([]lp.Term{term(x, 1), term(y, 2)}, lp.LE, 3, "c2")
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 2) {
		t.Fatalf("status=%v obj=%g, want optimal 2", sol.Status, sol.Obj)
	}
}

func TestSolveMILPInfeasible(t *testing.T) {
	m := lp.NewModel("milp-infeasible", lp.Minimize)
	x := m.NewBinary("x")
	y := m.NewBinary("y")
	m.AddConstr([]lp.Term{term(x, 1), term(y, 1)}, lp.GE, 3, "impossible")
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusInfeasible {
		t.Fatalf("status=%v, want infeasible", sol.Status)
	}
}

func TestSolveBinaryLogic(t *testing.T) {
	// Exactly-one constraint with preferences.
	m := lp.NewModel("logic", lp.Maximize)
	a := m.NewBinary("a")
	b := m.NewBinary("b")
	c := m.NewBinary("c")
	m.SetObjCoef(a, 1)
	m.SetObjCoef(b, 5)
	m.SetObjCoef(c, 3)
	m.AddConstr([]lp.Term{term(a, 1), term(b, 1), term(c, 1)}, lp.EQ, 1, "one")
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || sol.IntValue(b) != 1 {
		t.Fatalf("status=%v X=%v, want b chosen", sol.Status, sol.X)
	}
}

func TestSolveMixedIntegerContinuous(t *testing.T) {
	// min 2x + 3y, x integer, y continuous; x + y ≥ 3.6; x ≤ 2.
	// Best: x=2, y=1.6 → 8.8.
	m := lp.NewModel("mixed", lp.Minimize)
	x := m.NewVar(0, 2, true, "x")
	y := m.NewVar(0, 10, false, "y")
	m.SetObjCoef(x, 2)
	m.SetObjCoef(y, 3)
	m.AddConstr([]lp.Term{term(x, 1), term(y, 1)}, lp.GE, 3.6, "c")
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 8.8) {
		t.Fatalf("status=%v obj=%g, want 8.8", sol.Status, sol.Obj)
	}
}

func TestSolveObjOffset(t *testing.T) {
	m := lp.NewModel("offset", lp.Maximize)
	x := m.NewBinary("x")
	m.SetObjCoef(x, 2)
	m.SetObjOffset(10)
	sol := solve(t, m, solver.Options{})
	if !almostEq(sol.Obj, 12) {
		t.Fatalf("obj=%g, want 12", sol.Obj)
	}
}

func TestSolveNodeLimit(t *testing.T) {
	m := lp.NewModel("limit", lp.Maximize)
	// A problem that needs branching: the LP optimum x=3.75 is fractional.
	x := m.NewVar(0, 5, true, "x")
	y := m.NewVar(0, 5, true, "y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 1)
	m.AddConstr([]lp.Term{term(x, 2), term(y, 3)}, lp.LE, 7.5, "c")
	sol := solve(t, m, solver.Options{MaxNodes: 1})
	if sol.Status != lp.StatusLimit && sol.Status != lp.StatusFeasible {
		t.Fatalf("status=%v, want limit or feasible", sol.Status)
	}
	// The integer optimum is 3 (x=3, y=0); the capped interval brackets it.
	if !sol.Capped || sol.Bound < 3-1e-6 || (sol.Feasible() && sol.Obj > 3+1e-6) {
		t.Fatalf("capped=%t interval [%g, %g] misses the optimum 3", sol.Capped, sol.Obj, sol.Bound)
	}
}

func TestBoundFlipPath(t *testing.T) {
	// max x + 10y s.t. x + y ≤ 12, x ∈ [0,10], y ∈ [0,5].
	// Optimal pushes y to its own upper bound (a bound flip) and x to 7.
	m := lp.NewModel("flip", lp.Maximize)
	x := m.NewVar(0, 10, false, "x")
	y := m.NewVar(0, 5, false, "y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 10)
	m.AddConstr([]lp.Term{term(x, 1), term(y, 1)}, lp.LE, 12, "c")
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 57) {
		t.Fatalf("status=%v obj=%g, want 57", sol.Status, sol.Obj)
	}
	if !almostEq(sol.X[y], 5) || !almostEq(sol.X[x], 7) {
		t.Fatalf("x=%g y=%g, want 7, 5", sol.X[x], sol.X[y])
	}
}

func TestFixedVariable(t *testing.T) {
	// A variable with lo == hi must behave like a constant.
	m := lp.NewModel("fixed", lp.Maximize)
	x := m.NewVar(3, 3, false, "x")
	y := m.NewVar(0, 10, false, "y")
	m.SetObjCoef(y, 1)
	m.AddConstr([]lp.Term{term(x, 2), term(y, 1)}, lp.LE, 10, "c") // y ≤ 4
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.X[y], 4) || !almostEq(sol.X[x], 3) {
		t.Fatalf("status=%v x=%v, want [3 4]", sol.Status, sol.X)
	}
}

func TestNegativeLowerBounds(t *testing.T) {
	// min x + y with x ∈ [−5, 5], y ∈ [−3, 3], x + y ≥ −6. Optimum −6.
	m := lp.NewModel("neg", lp.Minimize)
	x := m.NewVar(-5, 5, false, "x")
	y := m.NewVar(-3, 3, false, "y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 1)
	m.AddConstr([]lp.Term{term(x, 1), term(y, 1)}, lp.GE, -6, "c")
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, -6) {
		t.Fatalf("status=%v obj=%g, want -6", sol.Status, sol.Obj)
	}
}

func TestDegenerateSystem(t *testing.T) {
	// Multiple constraints active at the optimum (degeneracy): the solver
	// must not cycle.
	m := lp.NewModel("degen", lp.Maximize)
	x := m.NewVar(0, 10, false, "x")
	y := m.NewVar(0, 10, false, "y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 1)
	m.AddConstr([]lp.Term{term(x, 1)}, lp.LE, 4, "c1")
	m.AddConstr([]lp.Term{term(x, 1), term(y, 0)}, lp.LE, 4, "c2") // duplicate face
	m.AddConstr([]lp.Term{term(x, 1), term(y, 1)}, lp.LE, 7, "c3")
	m.AddConstr([]lp.Term{term(x, 2), term(y, 2)}, lp.LE, 14, "c4") // scaled duplicate
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 7) {
		t.Fatalf("status=%v obj=%g, want 7", sol.Status, sol.Obj)
	}
}

func TestLargerDenseSystem(t *testing.T) {
	// Transportation LP: min Σ c_ij x_ij with 3 supplies (10, 20, 30) and 3
	// demands (15, 25, 20).
	m := lp.NewModel("transport", lp.Minimize)
	cost := [3][3]float64{{8, 6, 10}, {9, 12, 13}, {14, 9, 16}}
	var x [3][3]lp.Var
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			x[i][j] = m.NewVar(0, 60, false, "x")
			m.SetObjCoef(x[i][j], cost[i][j])
		}
	}
	supply := []float64{10, 20, 30}
	demand := []float64{15, 25, 20}
	for i := 0; i < 3; i++ {
		m.AddConstr([]lp.Term{term(x[i][0], 1), term(x[i][1], 1), term(x[i][2], 1)}, lp.EQ, supply[i], "s")
	}
	for j := 0; j < 3; j++ {
		m.AddConstr([]lp.Term{term(x[0][j], 1), term(x[1][j], 1), term(x[2][j], 1)}, lp.EQ, demand[j], "d")
	}
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status=%v", sol.Status)
	}
	// Verify against the known optimum of this classic instance.
	if sol.Obj < 550 || sol.Obj > 650 {
		t.Fatalf("obj=%g outside the plausible optimum window", sol.Obj)
	}
	// All flows in bounds and constraints met.
	if v := lptest.Violation(m, sol.X); v != "" {
		t.Fatal(v)
	}
	total := 0.0
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			total += sol.X[x[i][j]]
		}
	}
	if !almostEq(total, 60) {
		t.Fatalf("total flow %g, want 60", total)
	}
}

func TestSolveLPZeroConstraints(t *testing.T) {
	// No rows at all: the optimum sits at the variable bounds.
	m := lp.NewModel("free", lp.Maximize)
	x := m.NewVar(-2, 9, false, "x")
	m.SetObjCoef(x, 3)
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 27) {
		t.Fatalf("status=%v obj=%g, want 27", sol.Status, sol.Obj)
	}
}

func TestMILPBranchingOnGeneralIntegers(t *testing.T) {
	// Non-binary integer variables: max 7x + 2y, 3x + y ≤ 10, x,y ∈ [0,4].
	// LP gives x=10/3; integer optimum x=3, y=1 → 23.
	m := lp.NewModel("geninteger", lp.Maximize)
	x := m.NewVar(0, 4, true, "x")
	y := m.NewVar(0, 4, true, "y")
	m.SetObjCoef(x, 7)
	m.SetObjCoef(y, 2)
	m.AddConstr([]lp.Term{term(x, 3), term(y, 1)}, lp.LE, 10, "c")
	sol := solve(t, m, solver.Options{})
	if sol.Status != lp.StatusOptimal || !almostEq(sol.Obj, 23) {
		t.Fatalf("status=%v obj=%g, want 23", sol.Status, sol.Obj)
	}
}

// TestSolveMatchesBruteForce cross-validates branch and bound against
// exhaustive enumeration on random small pure-integer programs.
func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 120; trial++ {
		nv := 2 + rng.Intn(4)
		nc := 1 + rng.Intn(4)
		sense := lp.Minimize
		if rng.Intn(2) == 0 {
			sense = lp.Maximize
		}
		m := lp.NewModel("rand", sense)
		for i := 0; i < nv; i++ {
			m.SetObjCoef(m.NewVar(0, float64(1+rng.Intn(3)), true, "v"), float64(rng.Intn(11)-5))
		}
		for c := 0; c < nc; c++ {
			var terms []lp.Term
			for i := 0; i < nv; i++ {
				if rng.Intn(2) == 0 {
					terms = append(terms, term(lp.Var(i), float64(rng.Intn(7)-3)))
				}
			}
			if len(terms) == 0 {
				continue
			}
			rel := []lp.Rel{lp.LE, lp.GE, lp.EQ}[rng.Intn(3)]
			m.AddConstr(terms, rel, float64(rng.Intn(9)-2), "c")
		}
		want := lptest.MustEnumerate(t, m)
		sol := solve(t, m, solver.Options{})
		if !want.Feasible {
			if sol.Status != lp.StatusInfeasible {
				t.Fatalf("trial %d: solver says %v, enumeration says infeasible\n%s",
					trial, sol.Status, m.String())
			}
			continue
		}
		if sol.Status != lp.StatusOptimal {
			t.Fatalf("trial %d: solver says %v, enumeration found obj=%g\n%s",
				trial, sol.Status, want.Obj, m.String())
		}
		if !almostEq(sol.Obj, want.Obj) {
			t.Fatalf("trial %d: solver obj=%g, enumeration obj=%g\n%s",
				trial, sol.Obj, want.Obj, m.String())
		}
	}
}

// TestLPRandomFeasiblePoint checks that on random feasible bounded LPs the
// reported optimum is at least as good as any feasible point we can sample.
func TestLPRandomFeasiblePoint(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		nv := 2 + rng.Intn(3)
		m := lp.NewModel("randlp", lp.Maximize)
		for i := 0; i < nv; i++ {
			m.SetObjCoef(m.NewVar(0, 10, false, "v"), float64(rng.Intn(5)))
		}
		// Constraints with non-negative coefficients keep origin feasible.
		for c := 0; c < 1+rng.Intn(3); c++ {
			var terms []lp.Term
			for i := 0; i < nv; i++ {
				terms = append(terms, term(lp.Var(i), float64(rng.Intn(4))))
			}
			m.AddConstr(terms, lp.LE, float64(5+rng.Intn(20)), "c")
		}
		sol := solve(t, m, solver.Options{})
		if sol.Status != lp.StatusOptimal {
			t.Fatalf("trial %d: status=%v, want optimal (origin is feasible)", trial, sol.Status)
		}
		if v := lptest.Violation(m, sol.X); v != "" {
			t.Fatalf("trial %d: optimum infeasible: %s", trial, v)
		}
		// Sample random feasible points; none may beat the optimum.
		for k := 0; k < 20; k++ {
			x := make([]float64, nv)
			for i := range x {
				x[i] = rng.Float64() * 10
			}
			if lptest.Violation(m, x) != "" {
				continue
			}
			if obj := lptest.Objective(m, x); obj > sol.Obj+1e-6 {
				t.Fatalf("trial %d: sampled point beats 'optimum' (%g > %g)", trial, obj, sol.Obj)
			}
		}
	}
}
