// Package lptest is the exact reference oracle for tests of MILP engines:
// exhaustive enumeration of the integer points of a small pure-integer
// lp.Model. It reads the model only through lp.Model's public accessors, so
// it shares no code with any engine it checks.
package lptest

import (
	"fmt"
	"math"
	"testing"

	"regsat/internal/lp"
)

// maxVisits bounds the enumeration tree; models whose pruned search exceeds
// it are rejected rather than enumerated for minutes.
const maxVisits = 1 << 22

// tol is the row-feasibility tolerance of enumerated points.
const tol = 1e-9

// Optimum is the proven outcome of an enumeration.
type Optimum struct {
	// Feasible reports whether any integer point satisfies every row.
	Feasible bool
	// Obj is the optimal objective in model sense, offset included.
	Obj float64
	// X is the first optimal point in lexicographic order.
	X []float64
}

// Enumerate returns the optimum of the pure-integer model m by visiting every
// integer point of its bounds, pruning a partial assignment as soon as some
// row can no longer be satisfied by any completion. A continuous variable is
// an error: enumeration proves nothing about it.
func Enumerate(m *lp.Model) (Optimum, error) {
	n := m.NumVars()
	lo := make([]int64, n)
	hi := make([]int64, n)
	for j := 0; j < n; j++ {
		if !m.IsInteger(lp.Var(j)) {
			return Optimum{}, fmt.Errorf("lptest: %s: variable %s is continuous", m.Name(), m.VarName(lp.Var(j)))
		}
		l, h := m.Bounds(lp.Var(j))
		lo[j], hi[j] = int64(math.Ceil(l-tol)), int64(math.Floor(h+tol))
	}
	// minRest[i][k] / maxRest[i][k] bound row i's activity over the columns
	// k..n−1 not yet assigned.
	nr := m.NumConstrs()
	coef := make([][]float64, nr) // dense row coefficients
	minRest := make([][]float64, nr)
	maxRest := make([][]float64, nr)
	for i := 0; i < nr; i++ {
		terms, _, _ := m.Constr(i)
		coef[i] = make([]float64, n)
		for _, t := range terms {
			coef[i][t.Var] += t.Coef
		}
		minRest[i] = make([]float64, n+1)
		maxRest[i] = make([]float64, n+1)
		for k := n - 1; k >= 0; k-- {
			a, b := coef[i][k]*float64(lo[k]), coef[i][k]*float64(hi[k])
			minRest[i][k] = minRest[i][k+1] + math.Min(a, b)
			maxRest[i][k] = maxRest[i][k+1] + math.Max(a, b)
		}
	}
	act := make([]float64, nr)
	x := make([]float64, n)
	best := Optimum{}
	maximize := m.Sense() == lp.Maximize
	visits := 0
	// viable reports whether every row can still be satisfied once columns
	// k..n−1 are assigned.
	viable := func(k int) bool {
		for i := 0; i < nr; i++ {
			_, rel, rhs := m.Constr(i)
			if rel != lp.GE && act[i]+minRest[i][k] > rhs+tol {
				return false
			}
			if rel != lp.LE && act[i]+maxRest[i][k] < rhs-tol {
				return false
			}
		}
		return true
	}
	var rec func(k int) error
	rec = func(k int) error {
		if visits++; visits > maxVisits {
			return fmt.Errorf("lptest: %s needs more than %d enumeration steps", m.Name(), maxVisits)
		}
		if !viable(k) {
			return nil
		}
		if k == n {
			obj := Objective(m, x)
			if !best.Feasible || (maximize && obj > best.Obj) || (!maximize && obj < best.Obj) {
				best = Optimum{Feasible: true, Obj: obj, X: append([]float64(nil), x...)}
			}
			return nil
		}
		for v := lo[k]; v <= hi[k]; v++ {
			x[k] = float64(v)
			for i := 0; i < nr; i++ {
				act[i] += coef[i][k] * x[k]
			}
			err := rec(k + 1)
			for i := 0; i < nr; i++ {
				act[i] -= coef[i][k] * x[k]
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return Optimum{}, err
	}
	return best, nil
}

// MustEnumerate is Enumerate for tests: any error fails t.
func MustEnumerate(t testing.TB, m *lp.Model) Optimum {
	t.Helper()
	opt, err := Enumerate(m)
	if err != nil {
		t.Fatalf("%v", err)
	}
	return opt
}

// Violation returns a description of the first bound or row x violates
// (within a 1e-6 relative tolerance), or "" when x is a feasible point of m.
func Violation(m *lp.Model, x []float64) string {
	if len(x) != m.NumVars() {
		return fmt.Sprintf("assignment has %d entries, model has %d variables", len(x), m.NumVars())
	}
	for j := range x {
		l, h := m.Bounds(lp.Var(j))
		if x[j] < l-1e-6 || x[j] > h+1e-6 {
			return fmt.Sprintf("%s = %g outside [%g, %g]", m.VarName(lp.Var(j)), x[j], l, h)
		}
		if m.IsInteger(lp.Var(j)) && math.Abs(x[j]-math.Round(x[j])) > 1e-6 {
			return fmt.Sprintf("integer %s = %g", m.VarName(lp.Var(j)), x[j])
		}
	}
	for i := 0; i < m.NumConstrs(); i++ {
		terms, rel, rhs := m.Constr(i)
		a := 0.0
		for _, t := range terms {
			a += t.Coef * x[t.Var]
		}
		slack := 1e-6 * (1 + math.Abs(rhs))
		if (rel != lp.GE && a > rhs+slack) || (rel != lp.LE && a < rhs-slack) {
			return fmt.Sprintf("row %s: activity %g %s %g violated", m.ConstrName(i), a, rel, rhs)
		}
	}
	return ""
}

// Objective evaluates m's objective, offset included, at x.
func Objective(m *lp.Model, x []float64) float64 {
	obj := m.ObjOffset()
	for j := range x {
		obj += m.ObjCoef(lp.Var(j)) * x[j]
	}
	return obj
}
