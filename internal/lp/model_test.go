package lp

import (
	"math"
	"testing"
)

func TestModelAccessors(t *testing.T) {
	m := NewModel("acc", Minimize)
	x := m.NewVar(1, 3, true, "xx")
	m.AddConstr([]Term{{x, 1}}, LE, 2, "c")
	if m.NumVars() != 1 || m.NumConstrs() != 1 || m.NumIntVars() != 1 {
		t.Fatal("counts wrong")
	}
	if m.VarName(x) != "xx" || !m.IsInteger(x) {
		t.Fatal("var metadata wrong")
	}
	if lo, hi := m.Bounds(x); lo != 1 || hi != 3 {
		t.Fatal("bounds wrong")
	}
	if m.Name() != "acc" || m.Sense() != Minimize {
		t.Fatal("model metadata wrong")
	}
	if s := m.String(); len(s) == 0 {
		t.Fatal("String empty")
	}
}

func TestMergedDuplicateTerms(t *testing.T) {
	// x + x ≤ 2 must be stored as 2x ≤ 2, and x − x as no term at all.
	m := NewModel("dup", Maximize)
	x := m.NewVar(0, 10, false, "x")
	y := m.NewVar(0, 10, false, "y")
	m.AddConstr([]Term{{x, 1}, {y, 1}, {x, 1}, {y, -1}}, LE, 2, "c")
	terms, rel, rhs := m.Constr(0)
	if len(terms) != 1 || terms[0] != (Term{x, 2}) || rel != LE || rhs != 2 {
		t.Fatalf("row stored as %v %v %g, want 2·x <= 2", terms, rel, rhs)
	}
}

func TestIntegerVariableNeedsFiniteBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for infinite integer bounds")
		}
	}()
	m := NewModel("bad", Minimize)
	m.NewVar(0, math.Inf(1), true, "x")
}

func TestBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for lo > hi")
		}
	}()
	m := NewModel("bad", Minimize)
	m.NewVar(3, 1, false, "x")
}

func TestUnknownVarInConstraintPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := NewModel("bad", Minimize)
	m.AddConstr([]Term{{Var(7), 1}}, LE, 1, "c")
}
