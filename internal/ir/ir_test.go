package ir

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"regsat/internal/ddg"
)

// isLoopDDG reports whether a corpus file's header carries the `loop` flag:
// cyclic loop kernels do not parse as flat DDGs and are covered by
// internal/cyclic's own corpus test. (Inlined here because internal/cyclic
// depends on this package.)
func isLoopDDG(text string) bool {
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "ddg") {
			return false
		}
		for _, f := range strings.Fields(line)[1:] {
			if f == "loop" {
				return true
			}
		}
		return false
	}
	return false
}

func loadCorpus(t testing.TB) []*ddg.Graph {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ddg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus under ../../testdata")
	}
	var out []*ddg.Graph
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if isLoopDDG(string(raw)) {
			continue
		}
		g, err := ddg.ParseString(string(raw))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if err := g.Finalize(); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		out = append(out, g)
	}
	return out
}

// TestSnapshotMatchesDigraph checks every snapshot artifact against a fresh
// recomputation from the mutable digraph across the whole corpus.
func TestSnapshotMatchesDigraph(t *testing.T) {
	for _, g := range loadCorpus(t) {
		snap, err := Build(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		dg := g.ToDigraph()
		if snap.N != g.NumNodes() {
			t.Fatalf("%s: N=%d != %d", g.Name, snap.N, g.NumNodes())
		}
		// Topological order: valid positions for every edge.
		for _, e := range g.Edges() {
			if snap.TopoPos[e.From] >= snap.TopoPos[e.To] {
				t.Fatalf("%s: topo order violates edge %d→%d", g.Name, e.From, e.To)
			}
		}
		// All-pairs longest paths.
		ap, err := dg.LongestAllPairs()
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < snap.N; u++ {
			for v := 0; v < snap.N; v++ {
				if ap.D[u][v] != snap.AP.D[u][v] {
					t.Fatalf("%s: AP(%d,%d) %d != %d", g.Name, u, v, snap.AP.D[u][v], ap.D[u][v])
				}
			}
		}
		// Closure vs reachability, and critical path.
		cl, err := dg.TransitiveClosure()
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < snap.N; u++ {
			for v := 0; v < snap.N; v++ {
				if cl.Reaches(u, v) != snap.Reaches(u, v) {
					t.Fatalf("%s: closure(%d,%d) mismatch", g.Name, u, v)
				}
			}
		}
		if cp := g.CriticalPath(); cp != snap.CP {
			t.Fatalf("%s: CP %d != %d", g.Name, snap.CP, cp)
		}
		// CSR adjacency covers exactly the edge multiset, both directions.
		fwdCount, revCount := 0, 0
		for u := 0; u < snap.N; u++ {
			dst, wt := snap.Fwd.Row(u)
			fwdCount += len(dst)
			for i, v := range dst {
				if !hasEdge(g, u, int(v), wt[i]) {
					t.Fatalf("%s: Fwd edge %d→%d/%d not in graph", g.Name, u, v, wt[i])
				}
			}
			src, wtr := snap.Rev.Row(u)
			revCount += len(src)
			for i, v := range src {
				if !hasEdge(g, int(v), u, wtr[i]) {
					t.Fatalf("%s: Rev edge %d→%d/%d not in graph", g.Name, v, u, wtr[i])
				}
			}
		}
		if fwdCount != g.NumEdges() || revCount != g.NumEdges() {
			t.Fatalf("%s: CSR edge counts %d/%d != %d", g.Name, fwdCount, revCount, g.NumEdges())
		}
		// Type tables vs the direct graph scans.
		for _, typ := range g.Types() {
			tbl := snap.Table(typ)
			if tbl == nil {
				t.Fatalf("%s: missing table for %s", g.Name, typ)
			}
			wantVals := g.Values(typ)
			if len(tbl.Values) != len(wantVals) {
				t.Fatalf("%s/%s: %d values != %d", g.Name, typ, len(tbl.Values), len(wantVals))
			}
			for i, u := range wantVals {
				if tbl.Values[i] != u || tbl.Index[u] != i {
					t.Fatalf("%s/%s: value table mismatch at %d", g.Name, typ, i)
				}
				cons := g.Cons(u, typ)
				if len(cons) != len(tbl.Cons[i]) {
					t.Fatalf("%s/%s: consumer count mismatch for %d", g.Name, typ, u)
				}
				for j := range cons {
					if cons[j] != tbl.Cons[i][j] {
						t.Fatalf("%s/%s: consumers of %d differ", g.Name, typ, u)
					}
				}
				if tbl.DelayW[i] != g.Node(u).DelayW(typ) {
					t.Fatalf("%s/%s: δw mismatch for %d", g.Name, typ, u)
				}
				if len(tbl.PKill[i]) == 0 || len(tbl.PKill[i]) > len(cons) {
					t.Fatalf("%s/%s: pkill(%d) has %d entries for %d consumers",
						g.Name, typ, u, len(tbl.PKill[i]), len(cons))
				}
			}
		}
		// Digraph round-trip preserves edge indices.
		rt := snap.Digraph()
		if len(rt.Edges()) != g.NumEdges() {
			t.Fatalf("%s: Digraph round-trip lost edges", g.Name)
		}
		for i, e := range g.Edges() {
			ge := rt.Edge(i)
			if ge.From != e.From || ge.To != e.To || ge.Weight != e.Latency {
				t.Fatalf("%s: Digraph edge %d differs", g.Name, i)
			}
		}
	}
}

func hasEdge(g *ddg.Graph, from, to int, w int64) bool {
	for _, e := range g.Edges() {
		if e.From == from && e.To == to && e.Latency == w {
			return true
		}
	}
	return false
}

// TestInternSharesAndRebinds checks the interner contract: one build per
// structure, artifact sharing across structural twins, and G rebinding so a
// twin keeps its own names.
func TestInternSharesAndRebinds(t *testing.T) {
	g1 := ddg.RandomGraph(rand.New(rand.NewSource(5)), ddg.DefaultRandomParams(10))
	s1, err := Intern(g1)
	if err != nil {
		t.Fatal(err)
	}
	if s1.G != g1 {
		t.Fatal("first intern must bind the building graph")
	}
	again, err := Intern(g1)
	if err != nil {
		t.Fatal(err)
	}
	if again != s1 {
		t.Fatal("re-interning the same graph must return the identical snapshot")
	}
	// A structural twin (same seed, different name) shares artifacts but is
	// rebound to its own graph.
	g2 := ddg.RandomGraph(rand.New(rand.NewSource(5)), ddg.DefaultRandomParams(10))
	g2.Name = "twin"
	s2, err := Intern(g2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.G != g2 {
		t.Fatalf("twin snapshot bound to %q, want %q", s2.G.Name, g2.Name)
	}
	if &s2.AP.D[0][0] != &s1.AP.D[0][0] {
		t.Fatal("twin snapshot must share the all-pairs matrix storage")
	}
	if s2.Fingerprint != s1.Fingerprint {
		t.Fatal("structural twins must share the fingerprint")
	}
	// Lazy artifacts are computed once and shared through the rebind.
	r1, err := s1.RedundantEdges()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.RedundantEdges()
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatal("rebound snapshot recomputed the lazy reduction differently")
	}
}

// TestInternConcurrent interns the same structure from many goroutines; all
// must converge on one artifact without races.
func TestInternConcurrent(t *testing.T) {
	g := ddg.RandomGraph(rand.New(rand.NewSource(9)), ddg.DefaultRandomParams(12))
	const workers = 16
	snaps := make([]*Snapshot, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := Intern(g)
			if err != nil {
				t.Error(err)
				return
			}
			snaps[w] = s
		}(w)
	}
	wg.Wait()
	for _, s := range snaps {
		if s == nil {
			t.Fatal("intern failed")
		}
		// All goroutines must read the same underlying matrix (pointer-equal
		// rows prove a single build won the race or lost it gracefully).
		if &s.AP.D[0] == nil {
			t.Fatal("unreachable")
		}
	}
}

// TestBuildRejectsUnfinalized pins the error contract.
func TestBuildRejectsUnfinalized(t *testing.T) {
	g := ddg.New("raw", ddg.Superscalar)
	g.AddNode("a", "iadd", 1)
	if _, err := Build(g); err == nil {
		t.Fatal("Build accepted an unfinalized graph")
	}
}

// TestFingerprintIgnoresNames pins the sharing contract the interner and the
// batch memo rely on.
func TestFingerprintIgnoresNames(t *testing.T) {
	a := ddg.RandomGraph(rand.New(rand.NewSource(3)), ddg.DefaultRandomParams(9))
	b := ddg.RandomGraph(rand.New(rand.NewSource(3)), ddg.DefaultRandomParams(9))
	b.Name = "other"
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("fingerprint must ignore names")
	}
	c := ddg.RandomGraph(rand.New(rand.NewSource(4)), ddg.DefaultRandomParams(9))
	if Fingerprint(a) == Fingerprint(c) {
		t.Fatal("distinct structures collided")
	}
}

// TestFingerprintStableAcrossParses parses one text 50 times and requires
// a single fingerprint. Node a writes int and float and neither value has a
// consumer, so Finalize adds two exit edges to ⊥; if their order followed
// Go's randomized map iteration, equal texts would hash apart and miss the
// memo and the store.
func TestFingerprintStableAcrossParses(t *testing.T) {
	const text = `ddg "two-exits" machine=superscalar
node a op=divmod lat=2 writes=int,float
node b op=use lat=1
edge a b serial lat=2
`
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		g, err := ddg.ParseString(text)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Finalize(); err != nil {
			t.Fatal(err)
		}
		seen[Fingerprint(g)] = true
	}
	if len(seen) != 1 {
		t.Fatalf("50 parses of one text gave %d distinct fingerprints", len(seen))
	}
}

var sinkSnapshot *Snapshot

// BenchmarkIRBuild measures one full snapshot construction (CSR, topological
// order, closure, all-pairs longest paths, per-type tables) over the corpus.
func BenchmarkIRBuild(b *testing.B) {
	graphs := loadCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			s, err := Build(g)
			if err != nil {
				b.Fatal(err)
			}
			sinkSnapshot = s
		}
	}
}

var sinkClosure bool

// BenchmarkIRReach measures the closure-row hot read.
func BenchmarkIRReach(b *testing.B) {
	g := ddg.RandomGraph(rand.New(rand.NewSource(2)), ddg.DefaultRandomParams(64))
	snap, err := Build(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkClosure = snap.Reaches(i%snap.N, (i*7)%snap.N)
	}
}

// TestSetInternCapacity checks the resize knob evicts down to the new cap
// and keeps serving correct snapshots afterwards.
func TestSetInternCapacity(t *testing.T) {
	defer SetInternCapacity(DefaultInternCapacity)
	rng := rand.New(rand.NewSource(77))
	var gs []*ddg.Graph
	for i := 0; i < 8; i++ {
		gs = append(gs, ddg.RandomGraph(rng, ddg.DefaultRandomParams(6+i)))
	}
	for _, g := range gs {
		if _, err := Intern(g); err != nil {
			t.Fatal(err)
		}
	}
	SetInternCapacity(2)
	if n := Stats().Entries; n > 2 {
		t.Fatalf("cache holds %d entries after shrinking to 2", n)
	}
	// Evicted structures rebuild correctly.
	s, err := Intern(gs[0])
	if err != nil {
		t.Fatal(err)
	}
	if s.N != gs[0].NumNodes() {
		t.Fatal("rebuilt snapshot inconsistent")
	}
}

func TestInternerStatsEvictionsAndBytes(t *testing.T) {
	defer SetInternCapacity(DefaultInternCapacity)
	SetInternCapacity(2)
	before := Stats()

	rng := rand.New(rand.NewSource(77))
	var gs []*ddg.Graph
	for i := 0; i < 5; i++ {
		gs = append(gs, ddg.RandomGraph(rng, ddg.DefaultRandomParams(6+i)))
	}
	for _, g := range gs {
		if _, err := Intern(g); err != nil {
			t.Fatal(err)
		}
	}
	after := Stats()
	// Five distinct structures through a 2-entry cache must evict at least
	// three snapshots.
	if d := after.Evictions - before.Evictions; d < 3 {
		t.Fatalf("evictions moved by %d, want >= 3", d)
	}
	if after.Entries > 2 {
		t.Fatalf("population %d exceeds capacity 2", after.Entries)
	}
	if after.ResidentBytes <= 0 {
		t.Fatalf("resident bytes %d, want positive", after.ResidentBytes)
	}
	// The byte gauge must match the resident snapshots exactly (insertions
	// minus evictions), so it cannot drift over a long-running service.
	var want int64
	for _, g := range gs[len(gs)-after.Entries:] {
		s, err := Intern(g)
		if err != nil {
			t.Fatal(err)
		}
		want += s.MemBytes()
	}
	if got := Stats().ResidentBytes; got != want {
		t.Fatalf("resident bytes %d, want %d (sum over population)", got, want)
	}
}
