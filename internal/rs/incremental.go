package rs

import (
	"math/bits"
	"sync"

	"regsat/internal/graph"
)

// Incremental is the incremental killing-function evaluator behind ExactBB
// and Greedy-k. It maintains, across a branch-and-bound dive:
//
//   - the all-pairs longest-path matrix of the *extended* graph G→k restricted
//     to the killers decided so far, updated in place when a decision pushes
//     enforcement arcs (delta propagation touches only the affected pairs:
//     sources reaching the arc tail × sinks reachable from the arc head);
//   - the lifetime order DV_k as one bitset row per value, grown monotonically
//     as decisions commit (adding arcs can only lengthen paths, so order bits
//     are only ever set, never cleared, along a dive);
//   - a maximum matching of the order's comparability graph, augmented in
//     place as pairs appear, so the Dilworth antichain bound (Bound) is O(1)
//     at every node and a witness antichain (AntichainMembers) is one König
//     sweep at incumbent improvements;
//   - a trail of per-decision frames so Pop restores every structure exactly.
//
// Compared to the previous per-node rebuild (a fresh digraph plus a full
// LongestAllPairs and matching solve per leaf and per bound evaluation), a
// Push costs O(|srcs|·|dsts|) per arc plus one Kuhn sweep over the unmatched
// vertices, and a Pop is a plain undo-log replay: matrix cells and matching
// edges are logged as they are overwritten and restored in reverse order.
//
// The only O(n²) allocation is the matrix d, taken from a package pool;
// the search drivers hand it back with release once their result is out.
// An evaluator that is never released is simply left to the collector.
//
// An Incremental is single-goroutine; the snapshot it reads from is shared.
type Incremental struct {
	an *Analysis
	n  int     // node count
	nv int     // value count
	d  []int64 // n×n row-major longest-path matrix of the current extension (pooled)

	decided  []int   // killer node per value, -1 = undecided
	byKiller [][]int // node → stack of decided value indices using it as killer
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

	valIndex []int   // node → value index, -1 for non-values
	delayR   []int64 // node → δr
	delayW   []int64 // value index → δw

	trail      []frame
	cellArena  []cellDelta
	bitArena   []bitDelta
	matchArena []matchDelta

	srcs, dsts []int32 // scratch for delta propagation
}

// cellDelta records one overwrite of matrix cell idx. A cell raised by
// several arcs of one Push is logged once per write, so restoring a frame's
// deltas in reverse order ends on the pre-Push value.
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

// matrixPool recycles the n²·8-byte working matrices across evaluators. A
// pooled matrix needs no clearing: NewIncremental overwrites every cell.
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
// killer chosen, the extension equals the base graph).
func NewIncremental(an *Analysis) *Incremental {
	n := an.G.NumNodes()
	nv := len(an.Values)
	ik := &Incremental{
		an:       an,
		n:        n,
		nv:       nv,
		d:        pooledMatrix(n * n),
		decided:  make([]int, nv),
		byKiller: make([][]int, n),
		less:     make([]graph.BitSet, nv),
		valIndex: make([]int, n),
		delayR:   make([]int64, n),
		delayW:   make([]int64, nv),
	}
	for u := 0; u < n; u++ {
		copy(ik.d[u*n:(u+1)*n], an.AP.D[u])
		ik.valIndex[u] = -1
		ik.delayR[u] = an.G.Node(u).DelayR
	}
	ik.matchL = make([]int, nv)
	ik.matchR = make([]int, nv)
	ik.rightSeen = make([]int64, nv)
	for i := range ik.decided {
		ik.decided[i] = -1
		ik.less[i] = graph.NewBitSet(nv)
		ik.valIndex[an.Values[i]] = i
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
// killing function, possible on VLIW/EPIC offsets only).
func (ik *Incremental) Push(i, killer int) bool {
	fr := frame{value: i, killer: killer,
		cellStart: len(ik.cellArena), bitStart: len(ik.bitArena),
		matchStart: len(ik.matchArena), oldMatchSize: ik.matchSize}
	for _, other := range ik.an.PKill[i] {
		if other == killer {
			continue
		}
		if !ik.addArc(other, killer, ik.delayR[other]-ik.delayR[killer]) {
			// Cycle: undo the cells of the arcs already applied.
			ik.restoreCells(fr.cellStart)
			return false
		}
	}
	ik.updateOrder(i, killer, &fr)
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
	ik.byKiller[killer] = append(ik.byKiller[killer], i)
	ik.depth++
	ik.trail = append(ik.trail, fr)
	return true
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
	s := ik.byKiller[fr.killer]
	ik.byKiller[fr.killer] = s[:len(s)-1]
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

// addArc merges one enforcement arc a→b of weight w into the matrix. A new
// longest path through the arc decomposes as u ⇝ a, (a,b), b ⇝ v with both
// halves in the pre-arc graph, so the update is exact per arc and arcs of
// one Push compose by sequential application. Every raised cell is logged,
// once per write. Returns false on a cycle (b already reaches a).
func (ik *Incremental) addArc(a, b int, w int64) bool {
	n := ik.n
	if ik.d[b*n+a] != graph.NoPath {
		return false // a→b would close a cycle through the existing b ⇝ a
	}
	ik.srcs = ik.srcs[:0]
	ik.dsts = ik.dsts[:0]
	for u := 0; u < n; u++ {
		if ik.d[u*n+a] != graph.NoPath {
			ik.srcs = append(ik.srcs, int32(u))
		}
	}
	rowB := ik.d[b*n : (b+1)*n]
	for v := 0; v < n; v++ {
		if rowB[v] != graph.NoPath {
			ik.dsts = append(ik.dsts, int32(v))
		}
	}
	for _, u32 := range ik.srcs {
		u := int(u32)
		base := ik.d[u*n+a] + w
		rowU := ik.d[u*n : (u+1)*n]
		for _, v32 := range ik.dsts {
			v := int(v32)
			if cand := base + rowB[v]; cand > rowU[v] {
				ik.cellArena = append(ik.cellArena, cellDelta{idx: u*n + v, old: rowU[v]})
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
// no new bits.
func (ik *Incremental) updateOrder(i, killer int, fr *frame) {
	n := ik.n
	// Pairs of previously decided values whose lp(k(i′), v_j) changed.
	for ci := fr.cellStart; ci < len(ik.cellArena); ci++ {
		c := ik.cellArena[ci]
		u, v := c.idx/n, c.idx%n
		j := ik.valIndex[v]
		if j < 0 {
			continue
		}
		lp := ik.d[c.idx]
		for _, ip := range ik.byKiller[u] {
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
	kRead := ik.delayR[killer]
	rowK := ik.d[killer*n : (killer+1)*n]
	for j, vj := range ik.an.Values {
		if j == i {
			continue
		}
		lp := rowK[vj]
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

// LongestPath returns the longest path u ⇝ v in the current extension.
func (ik *Incremental) LongestPath(u, v int) int64 { return ik.d[u*ik.n+v] }

// Less reports whether value i's lifetime provably ends before value j's
// starts under the decisions made so far.
func (ik *Incremental) Less(i, j int) bool { return i != j && ik.less[i].Get(j) }
