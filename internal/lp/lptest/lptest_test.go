package lptest

import (
	"testing"

	"regsat/internal/lp"
)

// TestEnumerateHandValues pins the oracle itself on hand-solved models.
func TestEnumerateHandValues(t *testing.T) {
	// max 10 + x + y s.t. 2x + 3y ≤ 7.5 over x, y ∈ {0..5}: optimum 13 at
	// (2,1) and (3,0); lexicographic order reaches (2,1) first.
	m := lp.NewModel("hand", lp.Maximize)
	x := m.NewVar(0, 5, true, "x")
	y := m.NewVar(0, 5, true, "y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 1)
	m.SetObjOffset(10)
	m.AddConstr([]lp.Term{{Var: x, Coef: 2}, {Var: y, Coef: 3}}, lp.LE, 7.5, "c")
	got := MustEnumerate(t, m)
	if !got.Feasible || got.Obj != 13 || got.X[0] != 2 || got.X[1] != 1 {
		t.Fatalf("got %+v, want 13 at [2 1]", got)
	}
	if v := Violation(m, got.X); v != "" || Objective(m, got.X) != 13 {
		t.Fatalf("optimum rejected by its own checks: %q", v)
	}
	if v := Violation(m, []float64{3, 1}); v == "" {
		t.Fatal("point violating the row accepted")
	}

	// x + y = 3 over binaries: infeasible.
	inf := lp.NewModel("inf", lp.Minimize)
	a, b := inf.NewBinary("a"), inf.NewBinary("b")
	inf.AddConstr([]lp.Term{{Var: a, Coef: 1}, {Var: b, Coef: 1}}, lp.EQ, 3, "c")
	if got := MustEnumerate(t, inf); got.Feasible {
		t.Fatalf("infeasible model enumerated to %+v", got)
	}
}

func TestEnumerateRejectsContinuous(t *testing.T) {
	m := lp.NewModel("mixed", lp.Minimize)
	m.NewBinary("b")
	m.NewVar(0, 1, false, "c")
	if _, err := Enumerate(m); err == nil {
		t.Fatal("continuous variable accepted")
	}
}
