package service

import (
	"encoding/json"
	"reflect"
	"testing"

	"regsat/internal/rs"
	"regsat/internal/solver"
)

// fillDistinct sets every field of the struct v points to a distinct
// non-zero value, so a field the wire copy forgets (or crosses with
// another) shows up as a JSON difference.
func fillDistinct(t *testing.T, v any) {
	t.Helper()
	s := reflect.ValueOf(v).Elem()
	for i := 0; i < s.NumField(); i++ {
		f := s.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(101 + i))
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("%s.%s: no distinct value for kind %s", s.Type(), s.Type().Field(i).Name, f.Kind())
		}
	}
}

func requireSameJSON(t *testing.T, what string, engine, wire any) {
	t.Helper()
	a, err := json.Marshal(engine)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("%s: wire copy differs from the engine's JSON:\n engine %s\n wire   %s", what, a, b)
	}
}

// TestEngineToWireCopiesEveryField pins the engine → wire copies of the
// accounting structs: a field added to solver.Stats, rs.ILPInfo or
// rs.ExactStats and not carried onto the wire fails here.
func TestEngineToWireCopiesEveryField(t *testing.T) {
	var st solver.Stats
	var ilp rs.ILPInfo
	var bb rs.ExactStats
	fillDistinct(t, &st)
	fillDistinct(t, &ilp)
	fillDistinct(t, &bb)

	requireSameJSON(t, "solverToWire", st, solverToWire(&st))

	out := (&Server{}).rsToWire(nil, &rs.Result{RS: 1, ILP: &ilp, BBStats: &bb, SolverStats: &st}, false, false)
	requireSameJSON(t, "rsToWire ILP", ilp, out.ILP)
	requireSameJSON(t, "rsToWire BB", bb, out.BB)
	requireSameJSON(t, "rsToWire SolverStats", st, out.SolverStats)
}
