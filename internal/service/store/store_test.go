package store

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/ir"
	"regsat/internal/kernels"
	"regsat/internal/rs"
	"regsat/internal/solver"
)

func testGraph(t *testing.T) (*ddg.Graph, ddg.RegType, string) {
	t.Helper()
	g := kernels.ByNameMust("lin-daxpy").Build(ddg.Superscalar)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	types := g.Types()
	if len(types) == 0 {
		t.Fatal("kernel writes no register types")
	}
	return g, types[0], ir.Fingerprint(g)
}

func computeResult(t *testing.T, g *ddg.Graph, rt ddg.RegType, opts rs.Options) *rs.Result {
	t.Helper()
	res, err := rs.Compute(context.Background(), g, rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStoreRoundTrip: every field of a result except the in-memory
// killing function survives Put/Get, for each method's result shape — the
// greedy witness, a capped search's BBStats, and a node-capped intLP's
// model info, upper bound and solver stats.
func TestStoreRoundTrip(t *testing.T) {
	g, rt, fp := testGraph(t)
	for _, c := range []struct {
		name string
		opts rs.Options
	}{
		{"greedy", rs.Options{Method: rs.MethodGreedy}},
		{"bb-capped", rs.Options{Method: rs.MethodExactBB, MaxLeaves: 1}},
		{"ilp-capped", rs.Options{Method: rs.MethodExactILP, ApplyReductions: true,
			Solver: solver.Options{MaxNodes: 1}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := computeResult(t, g, rt, c.opts)
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(fp, g, rt, "k"); ok {
				t.Fatal("Get on empty store hit")
			}
			s.Put(fp, rt, "k", res)
			got, ok := s.Get(fp, g, rt, "k")
			if !ok {
				t.Fatal("Get after Put missed")
			}
			want := *res
			want.Killing = nil
			if !reflect.DeepEqual(*got, want) {
				t.Fatalf("round trip changed result:\n got  %+v\n want %+v", *got, want)
			}
			if got.Witness != nil {
				if err := got.Witness.Validate(); err != nil {
					t.Fatalf("rebuilt witness invalid: %v", err)
				}
			}
			// The second open of the same directory (a "restart") must
			// serve the same record.
			s2, err := Open(s.Dir())
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := s2.Get(fp, g, rt, "k"); !ok {
				t.Fatal("record did not survive reopen")
			}
			// Keys are (fingerprint, type, options): any component change
			// misses.
			if _, ok := s2.Get(fp, g, rt, "other-options"); ok {
				t.Fatal("options key ignored")
			}
			if _, ok := s2.Get("other-fp", g, rt, "k"); ok {
				t.Fatal("fingerprint ignored")
			}
		})
	}
}

// TestStoreReadsParentRecords: records written before the store persisted
// the engine's own result types (testdata/parent-*.json) still serve, and
// re-writing what they decode to yields the same JSON object.
func TestStoreReadsParentRecords(t *testing.T) {
	for _, c := range []struct {
		file   string
		kernel string // "" for the loop record
	}{
		{"parent-greedy.json", "lin-daxpy"},
		{"parent-bb-capped.json", "spec-tomcatv"},
		{"parent-ilp-capped.json", "spec-tomcatv"},
		{"parent-loop-certified.json", ""},
	} {
		t.Run(c.file, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			var env envelope
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Fatal(err)
			}
			if env.Schema != SchemaVersion {
				t.Fatalf("fixture schema %d, build reads %d", env.Schema, SchemaVersion)
			}
			rt := ddg.RegType(env.Type)
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			path := s.path(env.Fingerprint, rt, env.OptionsKey)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			defer func(saved func() time.Time) { now = saved }(now)
			now = func() time.Time { return time.Unix(0, env.SavedAtUnixNs) }
			if c.kernel == "" {
				res, ok := s.GetCyclic(env.Fingerprint, rt, env.OptionsKey)
				if !ok {
					t.Fatal("parent loop record does not serve")
				}
				s.PutCyclic(env.Fingerprint, rt, env.OptionsKey, res)
			} else {
				g := kernels.ByNameMust(c.kernel).Build(ddg.Superscalar)
				if err := g.Finalize(); err != nil {
					t.Fatal(err)
				}
				if ir.Fingerprint(g) != env.Fingerprint {
					t.Fatalf("fixture is not a record of %s", c.kernel)
				}
				res, ok := s.Get(env.Fingerprint, g, rt, env.OptionsKey)
				if !ok {
					t.Fatal("parent record does not serve")
				}
				s.Put(env.Fingerprint, rt, env.OptionsKey, res)
			}
			rewritten, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var before, after map[string]any
			if err := json.Unmarshal(raw, &before); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(rewritten, &after); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("re-written record differs:\n parent %s\n now    %s", raw, rewritten)
			}
		})
	}
}

func TestStoreCorruptionTolerated(t *testing.T) {
	g, rt, fp := testGraph(t)
	res := computeResult(t, g, rt, rs.Options{SkipWitness: true})

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Put(fp, rt, "k", res)
	path := s.path(fp, rt, "k")

	for _, garbage := range [][]byte{
		[]byte("{torn wri"),
		[]byte(`{"schema":999}`),
		{},
	} {
		if err := os.WriteFile(path, garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(fp, g, rt, "k"); ok {
			t.Fatalf("corrupt record %q served as a hit", garbage)
		}
	}
	if errs := s.Stats().Errors; errs < 3 {
		t.Fatalf("corruption not counted: %d errors", errs)
	}
	// A good record written over the corruption serves again.
	s.Put(fp, rt, "k", res)
	if _, ok := s.Get(fp, g, rt, "k"); !ok {
		t.Fatal("store did not recover after rewrite")
	}
}

// TestStoreTruncatedRecordEveryPrefix: a record file torn at *any* byte
// boundary (power loss mid-write on a filesystem without atomic rename, a
// partial copy) must read as a miss — never a panic, never a wrong hit —
// and a rewrite must recover the slot.
func TestStoreTruncatedRecordEveryPrefix(t *testing.T) {
	g, rt, fp := testGraph(t)
	res := computeResult(t, g, rt, rs.Options{})

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Put(fp, rt, "k", res)
	path := s.path(fp, rt, "k")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) < 8 {
		t.Fatalf("record suspiciously small: %d bytes", len(whole))
	}
	// Every prefix for small records would be slow for nothing; step through
	// a spread of cut points including the interesting edges.
	cuts := []int{0, 1, 2, len(whole) / 4, len(whole) / 2, len(whole) - 2, len(whole) - 1}
	for _, cut := range cuts {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(fp, g, rt, "k"); ok {
			t.Fatalf("record truncated to %d/%d bytes served as a hit", cut, len(whole))
		}
	}
	errsAfter := s.Stats().Errors
	if errsAfter < int64(len(cuts)) {
		t.Fatalf("truncations not counted as tolerated errors: %d < %d", errsAfter, len(cuts))
	}
	// Recovery: the original bytes serve again.
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(fp, g, rt, "k")
	if !ok {
		t.Fatal("restored record does not serve")
	}
	if got.RS != res.RS {
		t.Fatalf("restored record decoded wrong: RS %d != %d", got.RS, res.RS)
	}
}

// TestStoreUnreadableRecordIsMiss: a record that exists but cannot be read
// (permission denied) must degrade to a counted miss, not an error the
// analysis pipeline sees.
func TestStoreUnreadableRecordIsMiss(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root ignores file permissions")
	}
	g, rt, fp := testGraph(t)
	res := computeResult(t, g, rt, rs.Options{SkipWitness: true})
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Put(fp, rt, "k", res)
	path := s.path(fp, rt, "k")
	if err := os.Chmod(path, 0o000); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(path, 0o644)
	if _, ok := s.Get(fp, g, rt, "k"); ok {
		t.Fatal("unreadable record served as a hit")
	}
	if s.Stats().Errors == 0 {
		t.Fatal("unreadable record not counted")
	}
}

func TestStoreSchemaMismatchStartsFresh(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte("regsat-store v999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(dir, "objects", "zz", "alien.json")
	if err := os.MkdirAll(filepath.Dir(foreign), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(foreign, []byte("alien schema"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g, rt, fp := testGraph(t)
	res := computeResult(t, g, rt, rs.Options{SkipWitness: true})
	s.Put(fp, rt, "k", res)
	if _, ok := s.Get(fp, g, rt, "k"); !ok {
		t.Fatal("fresh tree under mismatched VERSION does not serve")
	}
	// The foreign tree is left alone.
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("foreign-schema record touched: %v", err)
	}
	if s.objects == filepath.Join(dir, "objects") {
		t.Fatal("mismatched schema reused the foreign objects tree")
	}
}

func TestStoreWitnessLengthMismatchIsMiss(t *testing.T) {
	g, rt, fp := testGraph(t)
	res := computeResult(t, g, rt, rs.Options{})
	if res.Witness == nil {
		t.Fatal("expected a witness")
	}
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Put(fp, rt, "k", res)

	// A graph with a different node count sharing the key (impossible for a
	// true fingerprint, but exactly what a hash collision or a tampered
	// store would look like) must be a tolerated miss, not a panic.
	other := kernels.ByNameMust("fig2").Build(ddg.Superscalar)
	if err := other.Finalize(); err != nil {
		t.Fatal(err)
	}
	if other.NumNodes() == g.NumNodes() {
		t.Skip("test kernels coincide in size")
	}
	if _, ok := s.Get(fp, other, rt, "k"); ok {
		t.Fatal("witness of wrong size served")
	}
}

func TestStoreLen(t *testing.T) {
	g, rt, fp := testGraph(t)
	res := computeResult(t, g, rt, rs.Options{SkipWitness: true})
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range []string{"a", "b", "c"} {
		s.Put(fp, rt, key, res)
		if n, err := s.Len(); err != nil || n != i+1 {
			t.Fatalf("Len after %d puts: %d, %v", i+1, n, err)
		}
	}
	// Overwriting an existing key does not grow the store.
	s.Put(fp, rt, "a", res)
	if n, _ := s.Len(); n != 3 {
		t.Fatalf("overwrite grew the store to %d", n)
	}
}

// TestStoreCyclicRoundTrip: periodic loop results persist and reload through
// the cyclic side of the store, keyed by the loop's
// distance-sensitive fingerprint.
func TestStoreCyclicRoundTrip(t *testing.T) {
	l, err := cyclic.ParseString(`ddg "rt" loop
node a op=mul lat=2 writes=float
node b op=add lat=1 writes=float
edge a b flow float
edge b a flow float dist=1
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cyclic.Analyze(context.Background(), l, ddg.Float, cyclic.Options{
		Certify: true,
		RS:      rs.Options{Method: rs.MethodExactBB, SkipWitness: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Periodic == nil {
		t.Fatal("small kernel did not certify")
	}

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fp := l.Fingerprint()
	key := (cyclic.Options{}).Key()
	if _, ok := s.GetCyclic(fp, ddg.Float, key); ok {
		t.Fatal("GetCyclic on empty store hit")
	}
	s.PutCyclic(fp, ddg.Float, key, res)
	got, ok := s.GetCyclic(fp, ddg.Float, key)
	if !ok {
		t.Fatal("GetCyclic after PutCyclic missed")
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("round trip changed result:\n got  %+v %+v\n want %+v %+v", got, got.Periodic, res, res.Periodic)
	}

	// Restart survives; key components are respected.
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.GetCyclic(fp, ddg.Float, key); !ok {
		t.Fatal("cyclic record did not survive reopen")
	}
	if _, ok := s2.GetCyclic(fp, ddg.Float, "other-options"); ok {
		t.Fatal("options key ignored")
	}
	if _, ok := s2.GetCyclic(fp, ddg.Int, key); ok {
		t.Fatal("register type ignored")
	}

	// A loop differing only in a carried distance has a different
	// fingerprint, so its results can never alias this record.
	far := l.Clone()
	for i := range far.Edges() {
		if far.Edges()[i].Dist == 1 {
			far.Edges()[i].Dist = 2
		}
	}
	if far.Fingerprint() == fp {
		t.Fatal("fingerprint ignores loop-carried distance")
	}
	if _, ok := s2.GetCyclic(far.Fingerprint(), ddg.Float, key); ok {
		t.Fatal("distance-shifted loop served another loop's record")
	}

	// An acyclic Get at the same coordinates must not decode a cyclic
	// record (and vice versa the fingerprint domains are disjoint anyway).
	g := kernels.ByNameMust("lin-daxpy").Build(ddg.Superscalar)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(fp, g, ddg.Float, key); ok {
		t.Fatal("acyclic Get decoded a cyclic record")
	}
}
