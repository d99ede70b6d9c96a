package rs

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"regsat/internal/ddg"
	"regsat/internal/graph"
	"regsat/internal/ir"
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

// loadCorpus parses and finalizes every acyclic .ddg file of the repository
// corpus.
func loadCorpus(t testing.TB) []*ddg.Graph {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ddg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus: no .ddg files under ../../testdata")
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

// diffState drives the incremental evaluator and the from-scratch rebuild
// through the same branch-and-bound tree, comparing them at every node.
type diffState struct {
	t      *testing.T
	an     *Analysis
	ik     *Incremental
	killer []int
	nodes  int
	budget int
}

func (d *diffState) compare(where string) {
	o, feasible := partialRebuildOrder(d.an, d.killer)
	if !feasible {
		d.t.Fatalf("%s/%s %s: rebuild says the pushed extension is cyclic", d.an.G.Name, d.an.Type, where)
	}
	nv := len(d.an.Values)
	for i := 0; i < nv; i++ {
		for j := 0; j < nv; j++ {
			if o.Less(i, j) != d.ik.Less(i, j) {
				d.t.Fatalf("%s/%s %s: order(%d,%d): rebuild=%t incremental=%t (killers %v)",
					d.an.G.Name, d.an.Type, where, i, j, o.Less(i, j), d.ik.Less(i, j), d.killer)
			}
		}
	}
	want := o.MaximumAntichain().Size
	if got := d.ik.Antichain().Size; want != got {
		d.t.Fatalf("%s/%s %s: antichain: rebuild=%d incremental=%d (killers %v)",
			d.an.G.Name, d.an.Type, where, want, got, d.killer)
	}
	if got := d.ik.Bound(); want != got {
		d.t.Fatalf("%s/%s %s: matching bound: rebuild=%d incremental=%d (killers %v)",
			d.an.G.Name, d.an.Type, where, want, got, d.killer)
	}
	members := d.ik.AntichainMembers()
	if len(members) != want {
		d.t.Fatalf("%s/%s %s: König antichain has %d members, want %d",
			d.an.G.Name, d.an.Type, where, len(members), want)
	}
	for x := 0; x < len(members); x++ {
		for y := x + 1; y < len(members); y++ {
			if o.Comparable(members[x], members[y]) {
				d.t.Fatalf("%s/%s %s: König antichain members %d,%d are comparable",
					d.an.G.Name, d.an.Type, where, members[x], members[y])
			}
		}
	}
}

func (d *diffState) walk(branch []int, pos int) {
	d.nodes++
	if d.nodes > d.budget {
		return
	}
	d.compare("node")
	if pos == len(branch) {
		return
	}
	i := branch[pos]
	for _, cand := range d.an.PKill[i] {
		d.killer[i] = cand
		pushed := d.ik.Push(i, cand)
		_, feasible := partialRebuildOrder(d.an, d.killer)
		if pushed != feasible {
			d.t.Fatalf("%s/%s: push(%d,%d): incremental=%t rebuild-feasible=%t (killers %v)",
				d.an.G.Name, d.an.Type, i, cand, pushed, feasible, d.killer)
		}
		if pushed {
			d.walk(branch, pos+1)
			d.ik.Pop()
		}
		d.killer[i] = -1
	}
}

// runDifferential checks the incremental evaluator against the from-scratch
// NewKilling-style rebuild at every node of the exact search tree of (g, t).
func runDifferential(t *testing.T, g *ddg.Graph, typ ddg.RegType, budget int) int {
	an, err := NewAnalysis(g, typ)
	if err != nil {
		t.Fatalf("%s/%s: %v", g.Name, typ, err)
	}
	if len(an.Values) == 0 {
		return 0
	}
	d := &diffState{t: t, an: an, ik: NewIncremental(an), killer: make([]int, len(an.Values)), budget: budget}
	var branch []int
	for i := range an.Values {
		if len(an.PKill[i]) == 1 {
			d.killer[i] = an.PKill[i][0]
			d.ik.Push(i, an.PKill[i][0])
		} else {
			d.killer[i] = -1
			branch = append(branch, i)
		}
	}
	d.walk(branch, 0)
	return d.nodes
}

// TestIncrementalMatchesRebuildCorpus is the corpus-wide differential: on
// every testdata graph and register type, the incremental evaluator must
// agree with the from-scratch rebuild — order rows, feasibility, and
// antichain bound — at every branch-and-bound node, with 0 disagreements.
func TestIncrementalMatchesRebuildCorpus(t *testing.T) {
	budget := 100000
	if testing.Short() {
		budget = 2000
	}
	total := 0
	for _, g := range loadCorpus(t) {
		for _, typ := range g.Types() {
			total += runDifferential(t, g, typ, budget)
		}
	}
	t.Logf("compared %d search nodes across the corpus", total)
}

// TestIncrementalMatchesRebuildRandom extends the differential to random
// graphs, including VLIW/EPIC offsets where enforcement arcs can close
// cycles (exercising the Push-refusal path).
func TestIncrementalMatchesRebuildRandom(t *testing.T) {
	count := 40
	if testing.Short() {
		count = 10
	}
	rng := rand.New(rand.NewSource(42))
	for _, machine := range []ddg.MachineKind{ddg.Superscalar, ddg.VLIW, ddg.EPIC} {
		for i := 0; i < count; i++ {
			p := ddg.DefaultRandomParams(7 + rng.Intn(5))
			p.Machine = machine
			p.Types = []ddg.RegType{ddg.Int, ddg.Float}
			g := ddg.RandomGraph(rng, p)
			for _, typ := range g.Types() {
				runDifferential(t, g, typ, 5000)
			}
		}
	}
}

// ikState is a deep copy of every structure Pop and a rejected Push must
// restore: the longest-path matrix, the order rows, the matching, the
// killer assignment, and the undo-log lengths.
type ikState struct {
	d                  []int64
	less               [][]uint64
	matchL, matchR     []int
	killers            []int
	matchSize, bound   int
	depth              int
	cells, bits, flips int
	frames             int
}

func snapshotState(ik *Incremental) ikState {
	st := ikState{
		d:         append([]int64(nil), ik.d...),
		matchL:    append([]int(nil), ik.matchL...),
		matchR:    append([]int(nil), ik.matchR...),
		killers:   ik.Killers(),
		matchSize: ik.matchSize,
		bound:     ik.Bound(),
		depth:     ik.Depth(),
		cells:     len(ik.cellArena),
		bits:      len(ik.bitArena),
		flips:     len(ik.matchArena),
		frames:    len(ik.trail),
	}
	for _, row := range ik.less {
		st.less = append(st.less, append([]uint64(nil), row...))
	}
	return st
}

// requireState fails unless ik is exactly in state want.
func requireState(t *testing.T, ik *Incremental, want ikState, where string) {
	t.Helper()
	for idx, v := range ik.d {
		if v != want.d[idx] {
			t.Fatalf("%s: matrix cell (%d,%d) = %d, want %d",
				where, ik.kNode[idx/ik.nk], ik.kNode[idx%ik.nk], v, want.d[idx])
		}
	}
	for i, row := range ik.less {
		for w := range row {
			if row[w] != want.less[i][w] {
				t.Fatalf("%s: order row %d word %d = %#x, want %#x", where, i, w, row[w], want.less[i][w])
			}
		}
	}
	for a := range ik.matchL {
		if ik.matchL[a] != want.matchL[a] || ik.matchR[a] != want.matchR[a] {
			t.Fatalf("%s: matching at %d: L=%d R=%d, want L=%d R=%d",
				where, a, ik.matchL[a], ik.matchR[a], want.matchL[a], want.matchR[a])
		}
	}
	for i, k := range ik.Killers() {
		if k != want.killers[i] {
			t.Fatalf("%s: killer of value %d = %d, want %d", where, i, k, want.killers[i])
		}
	}
	if ik.matchSize != want.matchSize || ik.Bound() != want.bound || ik.Depth() != want.depth {
		t.Fatalf("%s: matchSize/Bound/Depth = %d/%d/%d, want %d/%d/%d",
			where, ik.matchSize, ik.Bound(), ik.Depth(), want.matchSize, want.bound, want.depth)
	}
	if len(ik.cellArena) != want.cells || len(ik.bitArena) != want.bits || len(ik.matchArena) != want.flips {
		t.Fatalf("%s: undo logs hold %d/%d/%d entries, want %d/%d/%d", where,
			len(ik.cellArena), len(ik.bitArena), len(ik.matchArena), want.cells, want.bits, want.flips)
	}
	if len(ik.trail) != want.frames {
		t.Fatalf("%s: trail holds %d frames, want %d", where, len(ik.trail), want.frames)
	}
}

// interestSet gathers K_t = V_{R,t} ∪ ⋃ pkill independently of the
// evaluator: the node IDs, increasing.
func interestSet(an *Analysis) []int {
	in := map[int]bool{}
	for i, v := range an.Values {
		in[v] = true
		for _, k := range an.PKill[i] {
			in[k] = true
		}
	}
	var out []int
	for u := 0; u < an.G.NumNodes(); u++ {
		if in[u] {
			out = append(out, u)
		}
	}
	return out
}

// requireInterestSet fails unless the evaluator's matrix spans exactly K_t.
func requireInterestSet(t *testing.T, ik *Incremental, an *Analysis) {
	t.Helper()
	want := interestSet(an)
	if fmt.Sprint(ik.kNode) != fmt.Sprint(want) {
		t.Fatalf("%s/%s: interest set %v, want %v", an.G.Name, an.Type, ik.kNode, want)
	}
	if len(ik.d) != len(want)*len(want) {
		t.Fatalf("%s/%s: matrix holds %d cells, want |K_t|² = %d", an.G.Name, an.Type, len(ik.d), len(want)*len(want))
	}
}

// TestIncrementalPushPopRestores checks, across random push/pop sequences,
// that every Pop restores the evaluator — the K_t matrix, order rows,
// matching, killer assignment, bound, undo logs and trail — exactly to the
// state before its Push, and that a rejected Push leaves that state
// untouched. The last 15
// trials use larger, sparser VLIW graphs, and the test requires the hard
// rejection case to occur there: a Push refused by a later arc after its
// first arc was already merged into the matrix.
func TestIncrementalPushPopRestores(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	partialRejects := 0
	for trial := 0; trial < 45; trial++ {
		var p ddg.RandomParams
		if trial < 30 {
			p = ddg.DefaultRandomParams(8 + rng.Intn(4))
			if trial%2 == 1 {
				p.Machine = ddg.VLIW
			}
		} else {
			// Larger, sparser VLIW graphs give values three or more
			// potential killers, so a later arc of a Push can close a cycle.
			p = ddg.DefaultRandomParams(12 + rng.Intn(8))
			p.Machine = ddg.VLIW
			p.EdgeProb = 0.2
		}
		g := ddg.RandomGraph(rng, p)
		for _, typ := range g.Types() {
			an, err := NewAnalysis(g, typ)
			if err != nil {
				t.Fatal(err)
			}
			ik := NewIncremental(an)
			requireInterestSet(t, ik, an)
			var stack []ikState // pre-Push state of every live decision
			for step := 0; step < 200; step++ {
				where := fmt.Sprintf("%s/%s trial %d step %d", g.Name, typ, trial, step)
				if len(stack) > 0 && rng.Intn(3) == 0 {
					ik.Pop()
					requireState(t, ik, stack[len(stack)-1], where+" after Pop")
					stack = stack[:len(stack)-1]
					continue
				}
				// Pick an undecided value.
				var undec []int
				for i := range an.Values {
					if ik.Killer(i) < 0 {
						undec = append(undec, i)
					}
				}
				if len(undec) == 0 {
					break
				}
				i := undec[rng.Intn(len(undec))]
				cand := an.PKill[i][rng.Intn(len(an.PKill[i]))]
				before := snapshotState(ik)
				firstApplies := firstArcApplies(ik, i, cand)
				if ik.Push(i, cand) {
					stack = append(stack, before)
					continue
				}
				if firstApplies {
					partialRejects++
				}
				requireState(t, ik, before, where+" after rejected Push")
			}
			for len(stack) > 0 {
				ik.Pop()
				requireState(t, ik, stack[len(stack)-1], g.Name+" unwind")
				stack = stack[:len(stack)-1]
			}
			for i := range an.Values {
				if ik.less[i].Count() != 0 {
					t.Fatalf("%s/%s: order row %d not cleared after full unwind", g.Name, typ, i)
				}
				if ik.Killer(i) >= 0 && len(an.PKill[i]) > 1 {
					t.Fatalf("%s/%s: value %d still decided after full unwind", g.Name, typ, i)
				}
			}
		}
	}
	if partialRejects == 0 {
		t.Fatal("no VLIW Push was rejected after applying an arc: the partial-undo path went untested")
	}
	t.Logf("%d Pushes rejected after some of their arcs were applied", partialRejects)
}

// firstArcApplies reports whether Push(i, killer) would merge its first
// enforcement arc (and so write at least one matrix cell) before any
// later arc can reject it.
func firstArcApplies(ik *Incremental, i, killer int) bool {
	for _, other := range ik.an.PKill[i] {
		if other != killer {
			return ik.LongestPath(killer, other) == graph.NoPath && ik.LongestPath(other, killer) == graph.NoPath
		}
	}
	return false
}

// TestIncrementalRepeatedCellRestores pins the reverse-order cell trail on a
// Push whose two arcs raise the same cell: value s has potential killers
// k, o1 and o2, and value r reaches o1 in 2 cycles and o2 in 5. Deciding k
// adds o1→k, raising lp(r, k) from no path to 2, then o2→k, raising it to
// 5. Pop must end on the pre-Push value, no path, not on the intermediate 2.
// (r writes a value of its own so that it is in the interest set K_t.)
func TestIncrementalRepeatedCellRestores(t *testing.T) {
	g, err := ddg.ParseString(`ddg "double-raise" machine=superscalar
node s op=ld lat=1 writes=float
node r op=op lat=1 writes=float
node k op=use lat=1
node o1 op=use lat=1
node o2 op=use lat=1
edge s k flow float
edge s o1 flow float
edge s o2 flow float
edge r o1 serial lat=2
edge r o2 serial lat=5
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalysis(g, ddg.Float)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Values) != 2 || len(an.PKill[0]) != 3 {
		t.Fatalf("want value s with 3 potential killers and value r, got PKill %v", an.PKill)
	}
	r, k := g.NodeByName("r"), g.NodeByName("k")
	ik := NewIncremental(an)
	requireInterestSet(t, ik, an)
	before := snapshotState(ik)
	if !ik.Push(0, k) {
		t.Fatal("Push(s, k) rejected on a superscalar graph")
	}
	if got := ik.LongestPath(r, k); got != 5 {
		t.Fatalf("lp(r, k) after Push = %d, want 5", got)
	}
	writes := 0
	cell := int(ik.kOf[r])*ik.nk + int(ik.kOf[k])
	for _, c := range ik.cellArena[ik.trail[0].cellStart:] {
		if c.idx == cell {
			writes++
		}
	}
	if writes != 2 {
		t.Fatalf("cell (r, k) logged %d times, want 2 (one per raising arc)", writes)
	}
	ik.Pop()
	requireState(t, ik, before, "after Pop")
}

// TestIncrementalCommitLeavesNoUndo checks Commit's contract on random
// graphs: a successful Commit leaves the undo logs and the trail exactly as
// long as before it, a rejected one leaves the whole state untouched, and a
// probe Push/Pop after any number of commits restores the post-commit state
// exactly.
func TestIncrementalCommitLeavesNoUndo(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	commits, rejects := 0, 0
	for trial := 0; trial < 30; trial++ {
		p := ddg.DefaultRandomParams(10 + rng.Intn(10))
		if trial%2 == 1 {
			p.Machine = ddg.VLIW
			p.EdgeProb = 0.2
		}
		p.Types = []ddg.RegType{ddg.Int, ddg.Float}
		g := ddg.RandomGraph(rng, p)
		for _, typ := range g.Types() {
			an, err := NewAnalysis(g, typ)
			if err != nil {
				t.Fatal(err)
			}
			ik := NewIncremental(an)
			for _, i := range rng.Perm(len(an.Values)) {
				where := fmt.Sprintf("%s/%s trial %d value %d", g.Name, typ, trial, i)
				// Probe every candidate first: each Pop must restore the
				// state the commits so far left behind.
				for _, cand := range an.PKill[i] {
					before := snapshotState(ik)
					if ik.Push(i, cand) {
						ik.Pop()
					}
					requireState(t, ik, before, where+" after probe")
				}
				cand := an.PKill[i][rng.Intn(len(an.PKill[i]))]
				before := snapshotState(ik)
				if !ik.Commit(i, cand) {
					rejects++
					requireState(t, ik, before, where+" after rejected Commit")
					continue
				}
				commits++
				if ik.Killer(i) != cand || ik.Depth() != before.depth+1 {
					t.Fatalf("%s: Commit did not decide the value", where)
				}
				if len(ik.cellArena) != before.cells || len(ik.bitArena) != before.bits ||
					len(ik.matchArena) != before.flips || len(ik.trail) != before.frames {
					t.Fatalf("%s: Commit left undo entries: logs %d/%d/%d, trail %d; want %d/%d/%d, %d", where,
						len(ik.cellArena), len(ik.bitArena), len(ik.matchArena), len(ik.trail),
						before.cells, before.bits, before.flips, before.frames)
				}
			}
		}
	}
	if commits == 0 || rejects == 0 {
		t.Fatalf("want both outcomes exercised: %d commits, %d rejected", commits, rejects)
	}
	t.Logf("%d commits, %d rejected", commits, rejects)
}

// TestIncrementalCommitAboveFramePanics pins the guard: a Commit with a
// live Push frame would be partly undone by that frame's Pop.
func TestIncrementalCommitAboveFramePanics(t *testing.T) {
	g := loadCorpus(t)[0]
	an, err := NewAnalysis(g, g.Types()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Values) < 2 {
		t.Skip("needs two values")
	}
	ik := NewIncremental(an)
	if !ik.Push(0, an.PKill[0][0]) {
		t.Fatal("first Push rejected")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Commit above a live frame did not panic")
		}
	}()
	ik.Commit(1, an.PKill[1][0])
}

// TestIncrementalKSpaceLongestPath checks the interest-set closure argument
// along random dives: after every Push, Commit and Pop, each K_t pair's
// LongestPath equals the longest path of the from-scratch extended graph
// (the base graph plus the enforcement arcs of the decided values).
func TestIncrementalKSpaceLongestPath(t *testing.T) {
	rng := rand.New(rand.NewSource(424))
	checked := 0
	for trial := 0; trial < 24; trial++ {
		p := ddg.DefaultRandomParams(10 + rng.Intn(14))
		p.Machine = []ddg.MachineKind{ddg.Superscalar, ddg.VLIW, ddg.EPIC}[trial%3]
		p.Types = []ddg.RegType{ddg.Int, ddg.Float}
		if trial%2 == 1 {
			p.EdgeProb = 0.2
		}
		g := ddg.RandomGraph(rng, p)
		for _, typ := range g.Types() {
			an, err := NewAnalysis(g, typ)
			if err != nil {
				t.Fatal(err)
			}
			ik := NewIncremental(an)
			kset := interestSet(an)
			compare := func(where string) {
				killer := ik.Killers()
				dg := an.IR.Digraph()
				for i, k := range killer {
					if k >= 0 {
						addEnforcement(dg, an, i, k)
					}
				}
				ap, err := dg.LongestAllPairs()
				if err != nil {
					t.Fatalf("%s/%s %s: extended graph cyclic after an accepted decision: %v", g.Name, typ, where, err)
				}
				for _, u := range kset {
					for _, v := range kset {
						if got, want := ik.LongestPath(u, v), ap.D[u][v]; got != want {
							t.Fatalf("%s/%s %s: lp(%d,%d) = %d, extended graph says %d (killers %v)",
								g.Name, typ, where, u, v, got, want, killer)
						}
					}
				}
				checked++
			}
			compare("root")
			pushed := 0
			for _, i := range rng.Perm(len(an.Values)) {
				cand := an.PKill[i][rng.Intn(len(an.PKill[i]))]
				switch {
				case pushed == 0 && rng.Intn(3) == 0:
					if ik.Commit(i, cand) {
						compare("after Commit")
					}
				case ik.Push(i, cand):
					pushed++
					compare("after Push")
					if rng.Intn(4) == 0 {
						ik.Pop()
						pushed--
						compare("after Pop")
					}
				}
			}
			for ; pushed > 0; pushed-- {
				ik.Pop()
				compare("unwind")
			}
		}
	}
	t.Logf("compared K_t longest paths at %d dive states", checked)
}

// TestExactBBMatchesReference pins the incremental ExactBB to the retained
// from-scratch implementation on the corpus and on random graphs.
func TestExactBBMatchesReference(t *testing.T) {
	check := func(g *ddg.Graph) {
		for _, typ := range g.Types() {
			an, err := NewAnalysis(g, typ)
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, gotErr := ExactBB(an, 0)
			want, wantStats, wantErr := exactBBReference(an, 0)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s/%s: error mismatch: %v vs %v", g.Name, typ, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if got.RS != want.RS {
				t.Fatalf("%s/%s: RS mismatch: incremental=%d reference=%d", g.Name, typ, got.RS, want.RS)
			}
			if gotStats.Capped != wantStats.Capped {
				t.Fatalf("%s/%s: cap mismatch", g.Name, typ)
			}
			if gotStats.UpperBound != got.RS {
				t.Fatalf("%s/%s: uncapped search must prove UpperBound==RS, got %d != %d",
					g.Name, typ, gotStats.UpperBound, got.RS)
			}
			// The returned killing function must actually achieve RS.
			sat, err := got.Killing.Saturation()
			if err != nil {
				t.Fatalf("%s/%s: winning killing function invalid: %v", g.Name, typ, err)
			}
			if sat.RS != got.RS {
				t.Fatalf("%s/%s: killing function achieves %d, reported %d", g.Name, typ, sat.RS, got.RS)
			}
		}
	}
	for _, g := range loadCorpus(t) {
		check(g)
	}
	rng := rand.New(rand.NewSource(11))
	n := 30
	if testing.Short() {
		n = 8
	}
	for i := 0; i < n; i++ {
		p := ddg.DefaultRandomParams(8 + rng.Intn(4))
		if i%3 == 1 {
			p.Machine = ddg.VLIW
		}
		if i%3 == 2 {
			p.Machine = ddg.EPIC
		}
		check(ddg.RandomGraph(rng, p))
	}
}

// TestExactBBCapSemantics checks the fixed budget accounting: the cap is
// tested before evaluating a leaf, so a search whose tree holds exactly
// maxLeaves leaves completes uncapped, and a capped search reports a proven
// [RS, UpperBound] interval.
func TestExactBBCapSemantics(t *testing.T) {
	var an *Analysis
	for _, g := range loadCorpus(t) {
		for _, typ := range g.Types() {
			a, err := NewAnalysis(g, typ)
			if err != nil {
				t.Fatal(err)
			}
			if a.NumKillingFunctions() > 1 {
				an = a
				break
			}
		}
		if an != nil {
			break
		}
	}
	if an == nil {
		t.Fatal("corpus has no multi-killer case")
	}
	full, stats, err := ExactBB(an, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Capped {
		t.Fatal("unbounded search reported capped")
	}
	// A budget of exactly the evaluated leaves must complete uncapped (the
	// old check-after-evaluate flagged this complete search as capped).
	_, s2, err := ExactBB(an, stats.Leaves)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Capped {
		t.Fatalf("search with budget == leaf count (%d) reported capped", stats.Leaves)
	}
	if s2.Leaves != stats.Leaves {
		t.Fatalf("leaf count changed under exact budget: %d != %d", s2.Leaves, stats.Leaves)
	}
	// A budget of 1 evaluates exactly one leaf, caps, and brackets the truth.
	capped, s3, err := ExactBB(an, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !s3.Capped {
		t.Skip("single leaf already completed the tree") // single-branch case
	}
	if s3.Leaves != 1 {
		t.Fatalf("budget 1 evaluated %d leaves", s3.Leaves)
	}
	if capped.RS > s3.UpperBound {
		t.Fatalf("capped interval inverted: RS=%d > UpperBound=%d", capped.RS, s3.UpperBound)
	}
	if full.RS < capped.RS || full.RS > s3.UpperBound {
		t.Fatalf("true RS=%d outside proven interval [%d, %d]", full.RS, capped.RS, s3.UpperBound)
	}
}

// TestSharedSnapshotConcurrentReads hammers one interned ir.Snapshot from
// many goroutines running the full evaluator stack — analysis views, the
// incremental exact search, and Greedy-k — to prove concurrent reads of the
// shared immutable artifact are race-free (run under -race in CI).
func TestSharedSnapshotConcurrentReads(t *testing.T) {
	graphs := loadCorpus(t)
	g := graphs[0]
	for _, cand := range graphs {
		if len(cand.Types()) > 0 {
			g = cand
			break
		}
	}
	snap, err := ir.Intern(g)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, typ := range snap.Types {
				an, err := NewAnalysisIR(snap, typ)
				if err != nil {
					errs <- err
					return
				}
				if _, _, err := ExactBB(an, 0); err != nil {
					errs <- err
					return
				}
				if _, err := Greedy(an); err != nil {
					errs <- err
					return
				}
				if _, err := snap.RedundantEdges(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Sanity: the snapshot's closure agrees with its longest-path matrix.
	for u := 0; u < snap.N; u++ {
		for v := 0; v < snap.N; v++ {
			if u == v {
				continue
			}
			if snap.Reaches(u, v) != (snap.LongestPath(u, v) != graph.NoPath) {
				t.Fatalf("closure and AP disagree on (%d,%d)", u, v)
			}
		}
	}
}

// TestExactBBNegativeBudget pins the clamp: any non-positive budget means
// "default", never an instantly capped empty search.
func TestExactBBNegativeBudget(t *testing.T) {
	g := loadCorpus(t)[0]
	typ := g.Types()[0]
	an, err := NewAnalysis(g, typ)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := ExactBB(an, -1)
	if err != nil {
		t.Fatalf("negative budget must fall back to the default, got: %v", err)
	}
	if stats.Capped {
		t.Fatal("negative budget spuriously capped the search")
	}
	want, _, err := ExactBB(an, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.RS != want.RS {
		t.Fatalf("RS %d != %d under default budget", res.RS, want.RS)
	}
}
