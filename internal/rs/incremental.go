package rs

import (
	"fmt"
	"math/bits"
	"sync"

	"regsat/internal/graph"
)

// Incremental is the incremental killing-function evaluator behind ExactBB
// and Greedy-k. It maintains, across a branch-and-bound dive:
//
//   - the longest-path matrix of the *extended* graph G→k restricted to the
//     killers decided so far, over the type's interest set
//     K_t = V_{R,t} ∪ ⋃ pkill (see below), updated in place when a decision
//     pushes enforcement arcs (delta propagation touches only the affected
//     pairs: sources reaching the arc tail × sinks reachable from the arc
//     head);
//   - the lifetime order DV_k as one bitset row per value, grown monotonically
//     as decisions commit (adding arcs can only lengthen paths, so order bits
//     are only ever set, never cleared, along a dive);
//   - a maximum matching of the order's comparability graph, augmented in
//     place as pairs appear, so the Dilworth antichain bound (Bound) is O(1)
//     at every node and a witness antichain (AntichainMembers) is one König
//     sweep at incumbent improvements;
//   - a trail of per-decision frames so Pop restores every structure exactly.
//
// The matrix covers K_t only. Every enforcement arc joins two potential
// killers, so a longest path of G→k between two K_t nodes splits at its
// enforcement arcs into base-graph segments whose endpoints are all in K_t;
// the base segments are the snapshot's longest paths between K_t nodes, and
// the delta rule d[u][v] ← max(d[u][v], d[u][a] + w + d[b][v]) reads and
// writes K_t cells only. Every query the search makes — the cycle test
// d[b][a], lp(killer, value) for the order — is a K_t pair too.
//
// Push costs O(|srcs|·|dsts|) per arc plus one Kuhn sweep over the unmatched
// vertices, and a Pop is a plain undo-log replay: matrix cells and matching
// edges are logged as they are overwritten and restored in reverse order.
// Commit is a Push that is never popped: it logs only while the decision is
// being merged and leaves the undo logs and the trail as it found them.
//
// The only O(|K_t|²) allocation is the matrix d, taken from a package pool;
// the search drivers hand it back with release once their result is out.
// An evaluator that is never released is simply left to the collector.
//
// An Incremental is single-goroutine; the snapshot it reads from is shared.
type Incremental struct {
	an *Analysis
	nk int     // |K_t|
	nv int     // value count
	d  []int64 // nk×nk row-major longest-path matrix of the current extension (pooled)

	kNode []int   // K index → node ID, increasing
	kOf   []int32 // node ID → K index, -1 outside K_t

	decided  []int   // killer node per value, -1 = undecided
	byKiller [][]int // K index → stack of decided value indices using it as killer
	depth    int     // decided count

	less []graph.BitSet // DV_k rows over value indices

	// Incrementally maintained maximum matching of the order's comparability
	// bipartite graph (left copy a → right copy b per pair a < b). Dilworth:
	// the maximum antichain is nv − |matching|, so the branch-and-bound gets
	// its node bound without a per-node matching solve — pushes only add
	// order pairs, so the old matching stays valid and a one-pass Kuhn
	// augmentation from the unmatched vertices restores maximality.
	matchL, matchR []int
	matchSize      int
	rightSeen      []int64 // Kuhn DFS marks, restamped per sweep and per augmentation
	seenStamp      int64

	valIndex []int   // K index → value index, -1 for non-values
	valK     []int   // value index → K index
	delayR   []int64 // K index → δr
	delayW   []int64 // value index → δw

	trail      []frame
	cellArena  []cellDelta
	bitArena   []bitDelta
	matchArena []matchDelta

	srcs, dsts []int32 // scratch for delta propagation
}

// cellDelta records one overwrite of matrix cell idx (row-major over K_t).
// A cell raised by several arcs of one Push is logged once per write, so
// restoring a frame's deltas in reverse order ends on the pre-Push value.
type cellDelta struct {
	idx int
	old int64
}

type bitDelta struct{ i, j int32 }

// matchDelta records one matching edge flip a→b of a Kuhn augmentation with
// the partners it replaced; replaying a frame's flips in reverse restores
// the matching it started from.
type matchDelta struct{ a, oldL, b, oldR int32 }

// frame marks one decision on the undo trail. The deltas live in shared
// arenas on the evaluator (cellArena, bitArena, matchArena), each frame
// holding only its start offsets: pushes append, pops truncate, and no
// per-frame slices are allocated on the search's hot path.
type frame struct {
	value, killer int
	cellStart     int
	bitStart      int
	matchStart    int
	oldMatchSize  int
}

// matrixPool recycles the |K_t|²·8-byte working matrices across evaluators.
// A pooled matrix needs no clearing: NewIncremental overwrites every cell.
var matrixPool sync.Pool // of *[]int64

func pooledMatrix(size int) []int64 {
	if p, ok := matrixPool.Get().(*[]int64); ok && cap(*p) >= size {
		return (*p)[:size]
	}
	return make([]int64, size)
}

// release returns the working matrix to the pool. The evaluator must not be
// used afterwards; the search drivers defer it once their results no longer
// read the matrix.
func (ik *Incremental) release() {
	if ik.d == nil {
		return
	}
	d := ik.d
	ik.d = nil
	matrixPool.Put(&d)
}

// NewIncremental creates an evaluator positioned at the empty decision (no
// killer chosen, the extension equals the base graph). Its matrix is the
// snapshot's longest paths gathered over K_t.
func NewIncremental(an *Analysis) *Incremental {
	n := an.G.NumNodes()
	nv := len(an.Values)
	ik := &Incremental{
		an:      an,
		nv:      nv,
		kOf:     make([]int32, n),
		decided: make([]int, nv),
		less:    make([]graph.BitSet, nv),
		valK:    make([]int, nv),
		delayW:  make([]int64, nv),
	}
	for u := range ik.kOf {
		ik.kOf[u] = -1
	}
	// Mark K_t with 0, then number its nodes in increasing ID order.
	for i, v := range an.Values {
		ik.kOf[v] = 0
		for _, k := range an.PKill[i] {
			ik.kOf[k] = 0
		}
	}
	for u, mark := range ik.kOf {
		if mark == 0 {
			ik.kOf[u] = int32(len(ik.kNode))
			ik.kNode = append(ik.kNode, u)
		}
	}
	nk := len(ik.kNode)
	ik.nk = nk
	ik.d = pooledMatrix(nk * nk)
	ik.byKiller = make([][]int, nk)
	ik.valIndex = make([]int, nk)
	ik.delayR = make([]int64, nk)
	for a, u := range ik.kNode {
		row := an.AP.D[u]
		dRow := ik.d[a*nk : (a+1)*nk]
		for b, v := range ik.kNode {
			dRow[b] = row[v]
		}
		ik.valIndex[a] = -1
		ik.delayR[a] = an.G.Node(u).DelayR
	}
	ik.matchL = make([]int, nv)
	ik.matchR = make([]int, nv)
	ik.rightSeen = make([]int64, nv)
	for i := range ik.decided {
		ik.decided[i] = -1
		ik.less[i] = graph.NewBitSet(nv)
		ik.valK[i] = int(ik.kOf[an.Values[i]])
		ik.valIndex[ik.valK[i]] = i
		ik.delayW[i] = an.DelayW(i)
		ik.matchL[i] = -1
		ik.matchR[i] = -1
	}
	return ik
}

// Depth returns the number of decided values.
func (ik *Incremental) Depth() int { return ik.depth }

// Killer returns the decided killer of value i, or -1.
func (ik *Incremental) Killer(i int) int { return ik.decided[i] }

// Killers returns a copy of the current killer assignment (-1 = undecided).
func (ik *Incremental) Killers() []int {
	return append([]int(nil), ik.decided...)
}

// Push decides killer for value i: it adds the enforcement arcs
// (v′, killer) for every other potential killer v′, propagates the longest
// -path deltas, and extends the DV_k order rows. It reports false — leaving
// the evaluator unchanged — when the arcs would close a cycle (an invalid
// killing function, possible on VLIW/EPIC offsets only). A successful Push
// leaves a trail frame that the matching Pop replays.
func (ik *Incremental) Push(i, killer int) bool {
	fr, ok := ik.apply(i, killer)
	if ok {
		ik.trail = append(ik.trail, fr)
	}
	return ok
}

// Commit is Push for a decision that is never popped: single-killer
// prefixes and the greedy's final choice per value. It leaves no trail
// frame, and the undo logs end as long as they were before the call, so
// the logs of a long dive hold only the live probe frames. Commit panics
// while a pushed frame is live: that frame's Pop would restore cells the
// commit had raised since.
func (ik *Incremental) Commit(i, killer int) bool {
	if len(ik.trail) > 0 {
		panic("rs: Commit above a live Push frame")
	}
	fr, ok := ik.apply(i, killer)
	if ok {
		ik.cellArena = ik.cellArena[:fr.cellStart]
		ik.bitArena = ik.bitArena[:fr.bitStart]
		ik.matchArena = ik.matchArena[:fr.matchStart]
	}
	return ok
}

// apply merges decision (i, killer) and returns its undo frame; the deltas
// it logged are the frame's arena suffixes.
func (ik *Incremental) apply(i, killer int) (frame, bool) {
	fr := frame{value: i, killer: killer,
		cellStart: len(ik.cellArena), bitStart: len(ik.bitArena),
		matchStart: len(ik.matchArena), oldMatchSize: ik.matchSize}
	kk := int(ik.kOf[killer])
	for _, other := range ik.an.PKill[i] {
		if other == killer {
			continue
		}
		ko := int(ik.kOf[other])
		if !ik.addArc(ko, kk, ik.delayR[ko]-ik.delayR[kk]) {
			// Cycle: undo the cells of the arcs already applied.
			ik.restoreCells(fr.cellStart)
			return fr, false
		}
	}
	ik.updateOrder(i, kk, &fr)
	if len(ik.bitArena) > fr.bitStart {
		// New comparability edges: restore maximality with one Kuhn sweep
		// from the unmatched left vertices (a vertex with no augmenting path
		// before other augmentations has none after them either, so one
		// attempt each suffices). The right-vertex marks are shared across
		// the sweep's failed attempts: a failed DFS leaves only right
		// vertices with no alternating path to a free one, so later attempts
		// may skip them and still find the same paths. Only a successful
		// augmentation changes the matching and so needs fresh marks.
		ik.seenStamp++
		for a := 0; a < ik.nv; a++ {
			if ik.matchL[a] < 0 && ik.kuhnAugment(a) {
				ik.matchSize++
				ik.seenStamp++
			}
		}
	}
	ik.decided[i] = killer
	ik.byKiller[kk] = append(ik.byKiller[kk], i)
	ik.depth++
	return fr, true
}

// Pop undoes the most recent Push.
func (ik *Incremental) Pop() {
	fr := ik.trail[len(ik.trail)-1]
	ik.trail = ik.trail[:len(ik.trail)-1]
	for _, b := range ik.bitArena[fr.bitStart:] {
		ik.less[b.i].Clear(int(b.j))
	}
	ik.bitArena = ik.bitArena[:fr.bitStart]
	ik.restoreCells(fr.cellStart)
	for k := len(ik.matchArena) - 1; k >= fr.matchStart; k-- {
		m := ik.matchArena[k]
		ik.matchL[m.a] = int(m.oldL)
		ik.matchR[m.b] = int(m.oldR)
	}
	ik.matchArena = ik.matchArena[:fr.matchStart]
	ik.matchSize = fr.oldMatchSize
	ik.decided[fr.value] = -1
	kk := ik.kOf[fr.killer]
	s := ik.byKiller[kk]
	ik.byKiller[kk] = s[:len(s)-1]
	ik.depth--
}

// restoreCells undoes the matrix writes logged from cellArena[start:], newest
// first, and truncates the log.
func (ik *Incremental) restoreCells(start int) {
	for k := len(ik.cellArena) - 1; k >= start; k-- {
		c := ik.cellArena[k]
		ik.d[c.idx] = c.old
	}
	ik.cellArena = ik.cellArena[:start]
}

// kuhnAugment searches an augmenting path from unmatched left vertex a over
// the order's comparability edges (the bitset rows), flipping the matching
// along it and logging each flip on matchArena. Right-vertex marks carry the
// current seenStamp; Push decides when they are reset.
func (ik *Incremental) kuhnAugment(a int) bool {
	for wi, w := range ik.less[a] {
		for w != 0 {
			b := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			if ik.rightSeen[b] == ik.seenStamp {
				continue
			}
			ik.rightSeen[b] = ik.seenStamp
			if ik.matchR[b] < 0 || ik.kuhnAugment(ik.matchR[b]) {
				ik.matchArena = append(ik.matchArena,
					matchDelta{int32(a), int32(ik.matchL[a]), int32(b), int32(ik.matchR[b])})
				ik.matchL[a] = b
				ik.matchR[b] = a
				return true
			}
		}
	}
	return false
}

// Bound returns the maximum antichain size of the current partial order —
// by Dilworth, nv minus the maintained maximum matching — in O(1).
func (ik *Incremental) Bound() int { return ik.nv - ik.matchSize }

// AntichainMembers recovers one maximum antichain of the current order from
// the maintained matching via König's theorem (alternating reachability from
// the unmatched left vertices; the antichain is the elements visited on the
// left and not on the right). Only called on incumbent improvements, so it
// allocates its scratch locally.
func (ik *Incremental) AntichainMembers() []int {
	visitL := make([]bool, ik.nv)
	visitR := make([]bool, ik.nv)
	stack := make([]int, 0, ik.nv)
	for a := 0; a < ik.nv; a++ {
		if ik.matchL[a] < 0 {
			visitL[a] = true
			stack = append(stack, a)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for wi, w := range ik.less[u] {
			for w != 0 {
				b := wi*64 + bits.TrailingZeros64(w)
				w &= w - 1
				if visitR[b] || ik.matchL[u] == b {
					continue
				}
				visitR[b] = true
				if x := ik.matchR[b]; x >= 0 && !visitL[x] {
					visitL[x] = true
					stack = append(stack, x)
				}
			}
		}
	}
	var members []int
	for a := 0; a < ik.nv; a++ {
		if visitL[a] && !visitR[a] {
			members = append(members, a)
		}
	}
	return members
}

// addArc merges one enforcement arc a→b of weight w (K indices) into the
// matrix. A new longest path through the arc decomposes as u ⇝ a, (a,b),
// b ⇝ v with both halves in the pre-arc graph, so the update is exact per
// arc and arcs of one Push compose by sequential application. Every raised
// cell is logged, once per write. Returns false on a cycle (b already
// reaches a).
func (ik *Incremental) addArc(a, b int, w int64) bool {
	nk := ik.nk
	if ik.d[b*nk+a] != graph.NoPath {
		return false // a→b would close a cycle through the existing b ⇝ a
	}
	if lp := ik.d[a*nk+b]; lp != graph.NoPath && lp >= w {
		// Implied: every u ⇝ a → b ⇝ v is dominated by u ⇝ a ⇝ b ⇝ v.
		return true
	}
	ik.srcs = ik.srcs[:0]
	ik.dsts = ik.dsts[:0]
	for u := 0; u < nk; u++ {
		if ik.d[u*nk+a] != graph.NoPath {
			ik.srcs = append(ik.srcs, int32(u))
		}
	}
	rowB := ik.d[b*nk : (b+1)*nk]
	for v := 0; v < nk; v++ {
		if rowB[v] != graph.NoPath {
			ik.dsts = append(ik.dsts, int32(v))
		}
	}
	for _, u32 := range ik.srcs {
		u := int(u32)
		base := ik.d[u*nk+a] + w
		rowU := ik.d[u*nk : (u+1)*nk]
		for _, v32 := range ik.dsts {
			v := int(v32)
			if cand := base + rowB[v]; cand > rowU[v] {
				ik.cellArena = append(ik.cellArena, cellDelta{idx: u*nk + v, old: rowU[v]})
				rowU[v] = cand
			}
		}
	}
	return true
}

// updateOrder extends the DV_k bitset rows after the arcs of a decision have
// been merged: the freshly decided value gets its full row, and rows of
// earlier decisions gain exactly the pairs whose deciding longest path grew
// (found from the changed cells, not by rescanning the matrix). A cell logged
// more than once is read at its final value each time, so its repeats set
// no new bits. kk is the killer's K index.
func (ik *Incremental) updateOrder(i, kk int, fr *frame) {
	nk := ik.nk
	// Pairs of previously decided values whose lp(k(i′), v_j) changed.
	for ci := fr.cellStart; ci < len(ik.cellArena); ci++ {
		c := ik.cellArena[ci]
		u := c.idx / nk
		killed := ik.byKiller[u]
		if len(killed) == 0 {
			continue
		}
		j := ik.valIndex[c.idx%nk]
		if j < 0 {
			continue
		}
		lp := ik.d[c.idx]
		for _, ip := range killed {
			if ip == j || ik.less[ip].Get(j) {
				continue
			}
			if lp >= ik.delayR[u]-ik.delayW[j] {
				ik.less[ip].Set(j)
				ik.bitArena = append(ik.bitArena, bitDelta{int32(ip), int32(j)})
			}
		}
	}
	// Full row of the freshly decided value i.
	kRead := ik.delayR[kk]
	rowK := ik.d[kk*nk : (kk+1)*nk]
	for j, vk := range ik.valK {
		if j == i {
			continue
		}
		lp := rowK[vk]
		if lp == graph.NoPath || lp < kRead-ik.delayW[j] {
			continue
		}
		if !ik.less[i].Get(j) {
			ik.less[i].Set(j)
			ik.bitArena = append(ik.bitArena, bitDelta{int32(i), int32(j)})
		}
	}
}

// Antichain computes the full maximum-antichain result (with chain cover)
// of the current partial order from scratch. The search itself never needs
// it — Bound and AntichainMembers come from the maintained matching — but
// oracle tests compare against this complete solve.
func (ik *Incremental) Antichain() *graph.AntichainResult {
	return graph.OrderFromRows(ik.less).MaximumAntichain()
}

// LongestPath returns the longest path u ⇝ v in the current extension. Both
// nodes must be in the interest set K_t (values and potential killers).
func (ik *Incremental) LongestPath(u, v int) int64 {
	a, b := ik.kOf[u], ik.kOf[v]
	if a < 0 || b < 0 {
		panic(fmt.Sprintf("rs: LongestPath(%d, %d) outside the interest set", u, v))
	}
	return ik.d[int(a)*ik.nk+int(b)]
}

// Less reports whether value i's lifetime provably ends before value j's
// starts under the decisions made so far.
func (ik *Incremental) Less(i, j int) bool { return i != j && ik.less[i].Get(j) }
