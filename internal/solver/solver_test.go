package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"regsat/internal/lp"
	"regsat/internal/lp/lptest"
)

// widths are the tree-search worker counts every differential check runs:
// the sequential search and the parallel one with a shared incumbent.
var widths = []int{1, 3}

func solveWith(t *testing.T, m *lp.Model, opt Options) *Solution {
	t.Helper()
	sol, err := Solve(context.Background(), m, opt)
	if err != nil {
		t.Fatalf("parallel=%d: %v", opt.Parallel, err)
	}
	return sol
}

// requireOptimum asserts that sol proves the enumerated optimum ref of the
// pure-integer model m: same feasibility, same objective, a closed interval,
// and a returned point that is feasible for m and achieves the objective.
func requireOptimum(t *testing.T, tag string, m *lp.Model, ref lptest.Optimum, sol *Solution) {
	t.Helper()
	if !ref.Feasible {
		if sol.Status != lp.StatusInfeasible {
			t.Fatalf("%s: status %v, enumeration proves infeasible\n%s", tag, sol.Status, m)
		}
		return
	}
	if sol.Status != lp.StatusOptimal || math.Abs(sol.Obj-ref.Obj) > 1e-6 {
		t.Fatalf("%s: %v/%g, enumerated optimum %g\n%s", tag, sol.Status, sol.Obj, ref.Obj, m)
	}
	if sol.Gap != 0 || sol.Bound != sol.Obj {
		t.Fatalf("%s: optimal solve reported bound %g gap %g", tag, sol.Bound, sol.Gap)
	}
	if sol.AtCutoff {
		return // the caller holds the point
	}
	if v := lptest.Violation(m, sol.X); v != "" {
		t.Fatalf("%s: returned point infeasible: %s\n%s", tag, v, m)
	}
	if obj := lptest.Objective(m, sol.X); math.Abs(obj-sol.Obj) > 1e-6 {
		t.Fatalf("%s: reported obj %g but the point evaluates to %g", tag, sol.Obj, obj)
	}
}

// requireBracket asserts that the capped solve sol of m brackets the
// enumerated optimum ref: its incumbent (if any) is a feasible point no better
// than the optimum, and its proven bound is no worse.
func requireBracket(t *testing.T, tag string, m *lp.Model, ref lptest.Optimum, sol *Solution) {
	t.Helper()
	better := func(a, b float64) bool {
		if m.Sense() == lp.Maximize {
			return a > b+1e-6
		}
		return a < b-1e-6
	}
	if !ref.Feasible {
		if sol.Feasible() {
			t.Fatalf("%s: %v/%g on a model enumeration proves infeasible\n%s", tag, sol.Status, sol.Obj, m)
		}
		return
	}
	if better(ref.Obj, sol.Bound) {
		t.Fatalf("%s: proven bound %g excludes the enumerated optimum %g\n%s", tag, sol.Bound, ref.Obj, m)
	}
	if !sol.Feasible() || sol.AtCutoff {
		return
	}
	if better(sol.Obj, ref.Obj) {
		t.Fatalf("%s: incumbent %g beats the enumerated optimum %g\n%s", tag, sol.Obj, ref.Obj, m)
	}
	if v := lptest.Violation(m, sol.X); v != "" {
		t.Fatalf("%s: incumbent infeasible: %s\n%s", tag, v, m)
	}
}

// checkExact solves the pure-integer model at every width and requires each
// solve to prove the enumerated optimum.
func checkExact(t *testing.T, tag string, m *lp.Model, opt Options) {
	t.Helper()
	ref := lptest.MustEnumerate(t, m)
	for _, w := range widths {
		opt.Parallel = w
		requireOptimum(t, fmt.Sprintf("%s [parallel=%d]", tag, w), m, ref, solveWith(t, m, opt))
	}
}

func TestRegistry(t *testing.T) {
	if names := Names(); !slices.Equal(names, []string{DefaultBackend}) {
		t.Fatalf("registered backends %v, want [%s]", names, DefaultBackend)
	}
	if b, err := Get(""); err != nil || b.Name() != DefaultBackend {
		t.Fatalf("Get(\"\") = %v, %v; want the default backend", b, err)
	}
	for _, name := range []string{"dense", "parallel", "no-such-backend"} {
		if _, err := Get(name); err == nil {
			t.Errorf("Get(%q) did not fail", name)
		}
	}
	// Result stores key on the default options: the key must not move.
	if key := (Options{}).Key(); key != "sparse|n200000|t0s|i1e-06|p0|c-" {
		t.Errorf("default options key %q moved", key)
	}
}

func knapsack() *lp.Model {
	m := lp.NewModel("knap", lp.Maximize)
	w := []float64{2, 3, 4, 5, 9}
	v := []float64{3, 4, 5, 8, 10}
	var terms []lp.Term
	for i := range w {
		x := m.NewBinary("x")
		m.SetObjCoef(x, v[i])
		terms = append(terms, lp.Term{Var: x, Coef: w[i]})
	}
	m.AddConstr(terms, lp.LE, 13, "cap")
	return m
}

func TestKnapsackAllBackends(t *testing.T) {
	checkExact(t, "knapsack", knapsack(), Options{})
	// By hand: weights 3+4+5 = 12 ≤ 13 carry values 4+5+8 = 17, and no
	// subset of weight ≤ 13 carries more.
	if sol := solveWith(t, knapsack(), Options{}); sol.Obj != 17 {
		t.Fatalf("knapsack optimum %g, want 17", sol.Obj)
	}
}

// randomMILP builds a small random pure-integer program (the same family the
// lp package's tests cross-validate against enumeration).
func randomMILP(rng *rand.Rand) *lp.Model {
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
				terms = append(terms, lp.Term{Var: lp.Var(i), Coef: float64(rng.Intn(7) - 3)})
			}
		}
		if len(terms) == 0 {
			continue
		}
		rel := []lp.Rel{lp.LE, lp.GE, lp.EQ}[rng.Intn(3)]
		m.AddConstr(terms, rel, float64(rng.Intn(9)-2), "c")
	}
	return m
}

// TestBackendsAgreeRandom cross-validates the engine (sequential and
// parallel tree search) against exhaustive enumeration on hundreds of random
// integer programs, including infeasible ones.
func TestBackendsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2004))
	trials := 400
	if testing.Short() {
		trials = 120
	}
	for trial := 0; trial < trials; trial++ {
		checkExact(t, fmt.Sprintf("trial %d", trial), randomMILP(rng), Options{})
	}
}

// TestMixedIntegerContinuous checks the sparse engine on a model with a
// continuous variable (only the integer one is branched).
func TestMixedIntegerContinuous(t *testing.T) {
	for _, w := range widths {
		m := lp.NewModel("mix", lp.Maximize)
		x := m.NewVar(0, 10, true, "x")
		y := m.NewVar(0, 10, false, "y")
		m.SetObjCoef(x, 2)
		m.SetObjCoef(y, 3)
		m.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 2}}, lp.LE, 7.5, "c")
		sol := solveWith(t, m, Options{Parallel: w})
		if sol.Status != lp.StatusOptimal {
			t.Fatalf("parallel=%d: status %v", w, sol.Status)
		}
		// x integer, y continuous: best is x=7, y=0.25 → 14.75.
		if math.Abs(sol.Obj-14.75) > 1e-6 {
			t.Fatalf("parallel=%d: obj %g, want 14.75", w, sol.Obj)
		}
	}
}

// TestCutoffSeeding verifies that seeding with an achievable objective keeps
// the solve exact while pruning the tree.
func TestCutoffSeeding(t *testing.T) {
	m := knapsack()
	ref := lptest.MustEnumerate(t, m)
	checkExact(t, "seeded at the optimum", m, Options{Cutoff: CutoffAt(ref.Obj)})
	checkExact(t, "seeded below the optimum", m, Options{Cutoff: CutoffAt(ref.Obj - 3)})
	// An exclusive cutoff at the optimum: nothing strictly better exists, so
	// the solve proves the caller's held solution optimal without a point.
	for _, w := range widths {
		sol := solveWith(t, m, Options{Cutoff: CutoffAt(ref.Obj), ExclusiveCutoff: true, Parallel: w})
		if sol.Status != lp.StatusOptimal || !sol.AtCutoff || sol.Obj != ref.Obj {
			t.Fatalf("parallel=%d: exclusive cutoff at the optimum gave %v/%g atCutoff=%t",
				w, sol.Status, sol.Obj, sol.AtCutoff)
		}
	}
}

// TestNodeLimitReportsInterval: a capped solve reports the incumbent and the
// dual bound bracketing the true optimum (satellite: capped solves surface
// the interval like rs.ExactStats.Capped).
func TestNodeLimitReportsInterval(t *testing.T) {
	for _, w := range widths {
		rng := rand.New(rand.NewSource(7))
		m := lp.NewModel("cap", lp.Maximize)
		var terms []lp.Term
		for i := 0; i < 18; i++ {
			x := m.NewBinary("x")
			m.SetObjCoef(x, float64(1+rng.Intn(9)))
			terms = append(terms, lp.Term{Var: x, Coef: float64(2 + rng.Intn(5))})
		}
		m.AddConstr(terms, lp.LE, 23, "cap")
		sol := solveWith(t, m, Options{MaxNodes: 3, Parallel: w})
		if sol.Status == lp.StatusOptimal || sol.Status == lp.StatusInfeasible {
			continue // tiny model solved within the cap at this width
		}
		if !sol.Capped {
			t.Fatalf("parallel=%d: limit solve not marked capped (status %v)", w, sol.Status)
		}
		requireBracket(t, fmt.Sprintf("parallel=%d", w), m, lptest.MustEnumerate(t, m), sol)
		if sol.Status == lp.StatusFeasible && math.Abs(sol.Gap-(sol.Bound-sol.Obj)) > 1e-9 {
			t.Fatalf("parallel=%d: gap %g inconsistent with [%g, %g]", w, sol.Gap, sol.Obj, sol.Bound)
		}
	}
}

// TestContextCancellation: cancelling the context interrupts an in-flight
// solve promptly and surfaces the context error.
func TestContextCancellation(t *testing.T) {
	for _, w := range widths {
		rng := rand.New(rand.NewSource(42))
		m := lp.NewModel("slow", lp.Maximize)
		var terms []lp.Term
		for i := 0; i < 40; i++ {
			x := m.NewBinary("x")
			m.SetObjCoef(x, float64(1+rng.Intn(50)))
			terms = append(terms, lp.Term{Var: x, Coef: float64(1 + rng.Intn(40))})
		}
		m.AddConstr(terms, lp.LE, 300, "cap")
		for i := 0; i < 30; i++ {
			a, c := lp.Var(rng.Intn(40)), lp.Var(rng.Intn(40))
			if a == c {
				continue
			}
			m.AddConstr([]lp.Term{{Var: a, Coef: 1}, {Var: c, Coef: 1}}, lp.LE, 1, "conflict")
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already cancelled: the solve must return immediately
		start := time.Now()
		sol, err := Solve(ctx, m, Options{MaxNodes: 10_000_000, Parallel: w})
		if err == nil {
			t.Fatalf("parallel=%d: cancelled solve returned no error", w)
		}
		if sol == nil {
			t.Fatalf("parallel=%d: cancelled solve returned nil solution", w)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("parallel=%d: cancelled solve took %v", w, elapsed)
		}
	}
}

// TestParallelTreeSearchRace exercises the shared-incumbent tree search from
// many goroutines at once; run under -race this is the satellite race test.
func TestParallelTreeSearchRace(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 8; trial++ {
				m := randomMILP(rng)
				ref, err := lptest.Enumerate(m)
				if err != nil {
					t.Error(err)
					return
				}
				for _, w := range widths {
					sol, err := Solve(context.Background(), m, Options{Parallel: w})
					if err != nil {
						t.Errorf("parallel=%d: %v", w, err)
						return
					}
					if sol.Feasible() != ref.Feasible ||
						(ref.Feasible && (sol.Status != lp.StatusOptimal || math.Abs(sol.Obj-ref.Obj) > 1e-6)) {
						t.Errorf("seed %d trial %d: parallel=%d %v/%g, enumerated feasible=%t obj=%g",
							seed, trial, w, sol.Status, sol.Obj, ref.Feasible, ref.Obj)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestWarmStartsHappen: on a model needing real branching, the sparse engine
// must serve most node solves warm from the parent basis.
func TestWarmStartsHappen(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := lp.NewModel("warm", lp.Maximize)
	var terms []lp.Term
	for i := 0; i < 16; i++ {
		x := m.NewBinary("x")
		m.SetObjCoef(x, float64(3+rng.Intn(9)))
		terms = append(terms, lp.Term{Var: x, Coef: float64(2 + rng.Intn(7))})
	}
	m.AddConstr(terms, lp.LE, 31, "cap")
	sol := solveWith(t, m, Options{})
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Stats.Nodes > 4 && sol.Stats.WarmStarts == 0 {
		t.Fatalf("no warm starts across %d nodes (stats %+v)", sol.Stats.Nodes, sol.Stats)
	}
}

func TestInfeasibleModel(t *testing.T) {
	for _, w := range widths {
		m := lp.NewModel("inf", lp.Minimize)
		x := m.NewVar(0, 5, true, "x")
		m.AddConstr([]lp.Term{{Var: x, Coef: 1}}, lp.GE, 3, "ge")
		m.AddConstr([]lp.Term{{Var: x, Coef: 1}}, lp.LE, 2, "le")
		sol := solveWith(t, m, Options{Parallel: w})
		if sol.Status != lp.StatusInfeasible {
			t.Fatalf("parallel=%d: status %v, want infeasible", w, sol.Status)
		}
	}
}

// TestUnboundedColumnIsAnError: a column the engine cannot start from — one
// unbounded in its cost direction, or a free one — is a model error, never a
// silent delegation.
func TestUnboundedColumnIsAnError(t *testing.T) {
	// max x with x − y ≤ 1 over x, y ≥ 0: x can grow with y (a real ray).
	ray := lp.NewModel("ray", lp.Maximize)
	x := ray.NewVar(0, math.Inf(1), false, "x")
	y := ray.NewVar(0, math.Inf(1), false, "y")
	ray.SetObjCoef(x, 1)
	ray.AddConstr([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: -1}}, lp.LE, 1, "c")
	// A free zero-cost column next to a bounded objective.
	free := lp.NewModel("free", lp.Minimize)
	a := free.NewVar(0, 3, true, "a")
	z := free.NewVar(math.Inf(-1), math.Inf(1), false, "z")
	free.SetObjCoef(a, 1)
	free.AddConstr([]lp.Term{{Var: a, Coef: 1}, {Var: z, Coef: 1}}, lp.GE, 1, "c")
	for _, m := range []*lp.Model{ray, free} {
		for _, w := range widths {
			sol, err := Solve(context.Background(), m, Options{Parallel: w})
			if !errors.Is(err, ErrUnboundedColumn) || sol != nil {
				t.Fatalf("%s [parallel=%d]: got %v, %v; want ErrUnboundedColumn", m.Name(), w, sol, err)
			}
		}
	}
}

// TestNumericalRecovery forces the iteration cap on random integer programs
// and hinted conflict models, first in warm dives only — the engine must
// rebuild those nodes cold and still prove the enumerated optimum — then in
// every solve, where cold solves in trouble abandon their subtree and the
// search must end capped with an interval bracketing the optimum.
func TestNumericalRecovery(t *testing.T) {
	savedCold, savedWarm := spxIterCap, warmIterCap
	t.Cleanup(func() { spxIterCap, warmIterCap = savedCold, savedWarm })
	rng := rand.New(rand.NewSource(1515))
	var recovered, abandoned int
	for trial := 0; trial < 400; trial++ {
		warmOnly := trial < 200
		if warmOnly {
			warmIterCap = 1 + trial%3
		} else {
			spxIterCap, warmIterCap = trial%4, trial%4
		}
		m, opt := randomMILP(rng), Options{}
		if trial%2 == 1 {
			var cliques []Clique
			m, cliques = randomConflict(rng)
			opt.Hints = &Hints{Cliques: cliques}
		}
		ref := lptest.MustEnumerate(t, m)
		for _, w := range widths {
			opt.Parallel = w
			sol := solveWith(t, m, opt)
			tag := fmt.Sprintf("trial %d [parallel=%d]", trial, w)
			switch {
			case warmOnly:
				requireOptimum(t, tag, m, ref, sol)
				if sol.Stats.Fallbacks > 0 {
					recovered++
				}
			case sol.Capped:
				requireBracket(t, tag, m, ref, sol)
				abandoned++
			default:
				requireOptimum(t, tag, m, ref, sol)
			}
		}
	}
	t.Logf("%d solves recovered warm trouble, %d ended capped", recovered, abandoned)
	if recovered == 0 || abandoned == 0 {
		t.Fatalf("recovery path not exercised: %d recovered, %d capped", recovered, abandoned)
	}
}
