package regsat

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"path/filepath"
	"testing"

	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/gen"
	"regsat/internal/reduce"
	"regsat/internal/rs"
	"regsat/internal/solver"
)

// milpIdentityPin is the sha256 of every MILP-path result over the pinned
// inputs: the Section 3 intLP, seeded with Greedy-k as in production and
// unseeded so the tree search really branches (RS, exactness, proven upper
// bound, antichain, and the solver's node, simplex-iteration and fallback
// counts at one tree-search worker), the Section 4 coloring intLP (reduction outcome,
// added arcs and solver counts), and the certified periodic MILP of every
// loop kernel. The MILP engine may be restructured or sped up, but not
// change one answer or one search statistic: a change here is a semantic
// change of the solver (and of the daemon's stored results) and must be
// deliberate.
const milpIdentityPin = "e0c4865afdeaba89d3f6cda2ead3dcc58ccdc7e8be32ff05bbcf1399c672c863"

// Per-case budgets. Node caps, never time limits, so capped searches are
// deterministic and pinned too.
const (
	identityILPMaxValues    = 14
	identityILPCapValues    = 8 // above this many values the intLP is node-capped
	identityILPNodeCap      = 25
	identityReduceMaxValues = 5
	identityReduceNodeCap   = 20000
)

// identityGraphs returns the acyclic corpus, seeded random graphs on every
// machine model, and one small instance per generator family.
func identityGraphs(t *testing.T) []*ddg.Graph {
	graphs := loadCorpus(t)
	rng := rand.New(rand.NewSource(20041015))
	machines := []ddg.MachineKind{ddg.Superscalar, ddg.VLIW, ddg.EPIC}
	for k, n := range []int{6, 8, 9, 10, 11, 12, 14} {
		for m := 0; m < 2; m++ {
			p := ddg.DefaultRandomParams(n)
			p.Machine = machines[(k+m)%len(machines)]
			p.Types = []ddg.RegType{ddg.Int, ddg.Float}
			graphs = append(graphs, ddg.RandomGraph(rng, p))
		}
	}
	for k, f := range gen.Families() {
		p := f.Defaults
		p.Seed = int64(100 + k)
		p.Machine = machines[k%len(machines)]
		p.Size, p.Width = f.SizeRange[0], f.WidthRange[0]
		g, err := f.Generate(p)
		if err != nil {
			t.Fatalf("family %s: %v", f.Name, err)
		}
		graphs = append(graphs, g)
	}
	return graphs
}

// identityLoops returns every committed loop kernel plus one small instance
// per cyclic generator family.
func identityLoops(t *testing.T) []*cyclic.Loop {
	var loops []*cyclic.Loop
	for _, pattern := range []string{"testdata/*.ddg", "testdata/cyclic/*.ddg"} {
		files, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			it, ok := SourceFiles(file).Next()
			if !ok {
				continue
			}
			if it.Err != nil {
				t.Fatalf("%s: %v", file, it.Err)
			}
			if it.Loop == nil {
				continue
			}
			loops = append(loops, it.Loop)
		}
	}
	for k, f := range gen.CyclicFamilies() {
		for seed := int64(0); seed < 2; seed++ {
			p := f.Defaults
			p.Seed = 300 + 10*int64(k) + seed
			p.Size, p.Width = f.SizeRange[0], f.WidthRange[0]
			l, err := f.Generate(p)
			if err != nil {
				t.Fatalf("cyclic family %s: %v", f.Name, err)
			}
			loops = append(loops, l)
		}
	}
	return loops
}

// writeSolverStats appends the deterministic search counters of one solve.
func writeSolverStats(h hash.Hash, st solver.Stats) {
	fmt.Fprintf(h, " nodes=%d iters=%d fallbacks=%d\n", st.Nodes, st.SimplexIters, st.Fallbacks)
}

// TestMILPIdentityPin enforces that the MILP path's outputs stay identical
// across restructurings of the solver.
func TestMILPIdentityPin(t *testing.T) {
	if testing.Short() {
		t.Skip("MILP identity pin solves every pinned intLP")
	}
	ctx := context.Background()
	h := sha256.New()
	solves := 0
	for gi, g := range identityGraphs(t) {
		for _, typ := range g.Types() {
			an, err := rs.NewAnalysis(g, typ)
			if err != nil {
				t.Fatalf("%s/%s: %v", g.Name, typ, err)
			}
			nv := len(an.Values)
			if nv == 0 || nv > identityILPMaxValues {
				continue
			}
			fmt.Fprintf(h, "case %d %s/%s n=%d values=%d\n", gi, g.Name, typ, g.NumNodes(), nv)
			opt := solver.Options{Parallel: 1}
			if nv > identityILPCapValues {
				opt.MaxNodes = identityILPNodeCap
			}
			unseeded := opt
			// RS ≥ 0 always holds: a non-exclusive cutoff at 0 prunes nothing
			// and keeps ExactILP from seeding the search with Greedy-k.
			unseeded.Cutoff = solver.CutoffAt(0)
			if ures, err := rs.ExactILP(ctx, an, true, unseeded); err != nil {
				fmt.Fprintf(h, "unseeded err %v\n", err)
			} else {
				fmt.Fprintf(h, "unseeded rs=%d exact=%t ub=%d antichain=%v", ures.RS, ures.Exact, ures.UpperBound, ures.Antichain)
				writeSolverStats(h, ures.Stats)
			}
			res, err := rs.ExactILP(ctx, an, true, opt)
			if err != nil {
				fmt.Fprintf(h, "ilp err %v\n", err)
			} else {
				fmt.Fprintf(h, "ilp rs=%d exact=%t ub=%d antichain=%v", res.RS, res.Exact, res.UpperBound, res.Antichain)
				writeSolverStats(h, res.Stats)
			}
			solves += 2
			if nv > identityReduceMaxValues || err != nil || res.RS < 2 {
				continue
			}
			red, err := reduce.ExactILP(ctx, g, typ, res.RS-1, reduce.ILPOptions{
				ApplyReductions: true,
				Solver:          solver.Options{Parallel: 1, MaxNodes: identityReduceNodeCap},
			})
			if err != nil {
				fmt.Fprintf(h, "reduce err %v\n", err)
				continue
			}
			fmt.Fprintf(h, "reduce R=%d rs=%d exact=%t spill=%t cp=%d->%d iters=%d arcs=%v",
				res.RS-1, red.RS, red.Exact, red.Spill, red.CPBefore, red.CPAfter, red.Iterations, red.Arcs)
			if red.SolverStats != nil {
				writeSolverStats(h, *red.SolverStats)
			} else {
				fmt.Fprintln(h, " no-solve")
			}
			solves++
		}
	}
	for li, l := range identityLoops(t) {
		for _, typ := range l.Types() {
			res, err := cyclic.Analyze(ctx, l, typ, cyclic.Options{
				MaxWindow: 4,
				Certify:   true,
				RS: rs.Options{Method: rs.MethodExactBB, SkipWitness: true,
					Solver: solver.Options{Parallel: 1}},
			})
			fmt.Fprintf(h, "loop %d %s/%s", li, l.Name, typ)
			switch {
			case err != nil:
				fmt.Fprintf(h, " err %v\n", err)
			case res.Periodic == nil:
				fmt.Fprintln(h, " uncertified")
			default:
				p := res.Periodic
				fmt.Fprintf(h, " ii=%d prs=%d exact=%t ub=%d jmax=%d", p.II, p.RS, p.Exact, p.UpperBound, p.Jmax)
				if p.Stats != nil {
					writeSolverStats(h, *p.Stats)
				} else {
					fmt.Fprintln(h, " no-solve")
				}
				solves++
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("hashed %d MILP results", solves)
	if got != milpIdentityPin {
		t.Fatalf("MILP outputs changed: sha256 %s, pinned %s", got, milpIdentityPin)
	}
}
