package rs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"regsat/internal/ddg"
)

// outputIdentityPin is the sha256 of every Greedy-k (both scorings) and
// ExactBB result — RS, witness antichain, killing function and BB search
// statistics — over identityCases. The search engines are free to get
// faster, but not to change a single answer or statistic: a change here is
// a semantic change of the engine (and of the daemon's stored results) and
// must be deliberate.
const outputIdentityPin = "132088ecfb32d31bc9e6ee345f51ff9bf0fa1b1af65afee174b6666008c69ee9"

// ExactBB runs on every case of at most identityBBMaxNodes nodes (past that
// the prune count, not the leaf count, explodes on random graphs), with a
// leaf cap of identityLeafCap above 40 nodes so the pin also covers capped
// searches: their best-found result, leaf and prune counts, and the proven
// upper bound.
const (
	identityBBMaxNodes = 81
	identityLeafCap    = 20
)

// identityCases returns the pinned inputs: the acyclic corpus, then seeded
// random graphs on every machine model from 8 up to ~300 nodes. Past 16
// nodes the expected out-degree is fixed (4 or 8, alternating) rather than
// the edge probability, so the larger graphs keep a block-like
// potential-killer count.
func identityCases(t testing.TB) []*ddg.Graph {
	cases := loadCorpus(t)
	rng := rand.New(rand.NewSource(20040815))
	machines := []ddg.MachineKind{ddg.Superscalar, ddg.VLIW, ddg.EPIC}
	for k, n := range []int{8, 10, 12, 14, 16, 20, 24, 30, 40, 60, 80, 120, 160, 220, 300} {
		for m := 0; m < 2; m++ {
			p := ddg.DefaultRandomParams(n)
			p.Machine = machines[(k+m)%len(machines)]
			p.Types = []ddg.RegType{ddg.Int, ddg.Float}
			if n > 16 {
				p.EdgeProb = float64(4+4*m) / float64(n)
			}
			cases = append(cases, ddg.RandomGraph(rng, p))
		}
	}
	return cases
}

// writeIdentity appends one engine result to the pin's hash.
func writeIdentity(h hash.Hash, tag string, res *RSResult, err error) {
	if err != nil {
		fmt.Fprintf(h, "%s err %v\n", tag, err)
		return
	}
	fmt.Fprintf(h, "%s rs=%d antichain=%v killers=%v\n", tag, res.RS, res.Antichain, res.Killing.Killer)
}

// TestOutputIdentityPin enforces that the engines' outputs stay bit-identical
// across performance work on the incremental evaluator.
func TestOutputIdentityPin(t *testing.T) {
	h := sha256.New()
	results := 0
	for gi, g := range identityCases(t) {
		for _, typ := range g.Types() {
			an, err := NewAnalysis(g, typ)
			if err != nil {
				t.Fatalf("%s/%s: %v", g.Name, typ, err)
			}
			fmt.Fprintf(h, "case %d %s/%s n=%d values=%d\n", gi, g.Name, typ, g.NumNodes(), len(an.Values))
			res, err := GreedyWithScoring(an, ScoreAntichain)
			writeIdentity(h, "greedy", res, err)
			res, err = GreedyWithScoring(an, ScoreLocalPairs)
			writeIdentity(h, "greedy-local", res, err)
			results += 2
			if g.NumNodes() > identityBBMaxNodes {
				continue
			}
			var leafCap int64
			if g.NumNodes() > 40 {
				leafCap = identityLeafCap
			}
			res, stats, err := ExactBB(an, leafCap)
			writeIdentity(h, "bb", res, err)
			fmt.Fprintf(h, "bb stats leaves=%d pruned=%d capped=%t ub=%d\n",
				stats.Leaves, stats.Pruned, stats.Capped, stats.UpperBound)
			results++
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("hashed %d engine results", results)
	if got != outputIdentityPin {
		t.Fatalf("engine outputs changed: sha256 %s, pinned %s", got, outputIdentityPin)
	}
}
