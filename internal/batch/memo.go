package batch

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/ir"
	"regsat/internal/obs"
	"regsat/internal/reduce"
	"regsat/internal/rs"
	"regsat/internal/schedule"
)

// DefaultCacheSize bounds the memo when Options.CacheSize is zero.
const DefaultCacheSize = 1024

// memo is a bounded LRU cache of per-graph analysis artifacts, keyed by the
// ir fingerprint. Each entry holds the artifacts every RS method shares —
// one interned ir.Snapshot serving all register types of the graph, the
// per-type rs.Analysis views over it, and finished RS/reduction results
// keyed by their options — each computed at most once under singleflight
// semantics: concurrent workers that hit the same fingerprint block on the
// first computation instead of duplicating it.
type memo struct {
	// cap and l2 are set once in newMemo and immutable afterwards, so they
	// live above the mutex: mu guards only the fields below it.
	cap int
	l2  ResultCache

	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	hits, misses, l2hits atomic.Int64
}

func newMemo(capacity int, l2 ResultCache) *memo {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &memo{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		order:   list.New(),
		l2:      l2,
	}
}

// entry holds the memoized artifacts of one graph fingerprint. In-flight
// computations hold the entry pointer, so LRU eviction never invalidates a
// computation already underway.
type entry struct {
	fp string

	snapOnce sync.Once
	snap     *ir.Snapshot
	snapErr  error

	mu       sync.Mutex
	analyses map[ddg.RegType]*analysisSlot
	// slots holds one *slot[T] per finished result, keyed by its kind and
	// its (type, options) key.
	slots map[slotKey]any
}

type slotKey struct{ kind, key string }

type analysisSlot struct {
	once sync.Once
	an   *rs.Analysis
	err  error
}

// slot is a singleflight cell for one finished result that does NOT
// memoize context cancellation: an exact solve interrupted by a cancelled
// batch must not poison the slot for later runs of a shared engine. The
// mutex is held for the whole computation, so concurrent workers on the same
// fingerprint block on the first computation instead of duplicating it (and
// a waiter whose own context is already cancelled recomputes, fails fast in
// the solver, and returns its context error without writing the slot).
type slot[T any] struct {
	mu   sync.Mutex
	done bool
	val  T
	err  error
}

// get returns the memoized value, computing it under the slot lock on first
// use. The second return reports whether this call ran the computation.
func (s *slot[T]) get(compute func() (T, error)) (T, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return s.val, false, s.err
	}
	val, err := compute()
	if isCtxErr(err) {
		var zero T
		return zero, true, err
	}
	s.done = true
	s.val, s.err = val, err
	return val, true, err
}

func isCtxErr(err error) bool {
	return err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// slotOf returns e's slot for (kind, key), creating it on first use.
func slotOf[T any](e *entry, kind, key string) *slot[T] {
	e.mu.Lock()
	defer e.mu.Unlock()
	k := slotKey{kind, key}
	s, ok := e.slots[k].(*slot[T])
	if !ok {
		s = &slot[T]{}
		e.slots[k] = s
	}
	return s
}

// lookup returns the entry for fp, creating and inserting it (with LRU
// eviction) when absent.
func (m *memo) lookup(fp string) *entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[fp]; ok {
		m.order.MoveToFront(el)
		return el.Value.(*entry)
	}
	e := &entry{
		fp:       fp,
		analyses: make(map[ddg.RegType]*analysisSlot),
		slots:    make(map[slotKey]any),
	}
	m.entries[fp] = m.order.PushFront(e)
	for len(m.entries) > m.cap {
		oldest := m.order.Back()
		delete(m.entries, oldest.Value.(*entry).fp)
		m.order.Remove(oldest)
	}
	return e
}

// snapshot returns the entry's interned ir.Snapshot, building it from g on
// first use. The entry's fingerprint doubles as the intern key, so the hash
// is never recomputed, and one snapshot serves every register type and
// every structural twin of the graph. The context is used only for tracing:
// when the winning caller's request is recorded, the one-time IR build
// appears as its span (later hitters see nothing — they didn't pay it).
func (e *entry) snapshot(ctx context.Context, g *ddg.Graph) (*ir.Snapshot, error) {
	e.snapOnce.Do(func() {
		_, sp := obs.StartSpan(ctx, "ir.build", obs.Int("nodes", int64(len(g.Nodes()))))
		e.snap, e.snapErr = ir.InternFingerprint(g, e.fp)
		sp.End()
	})
	return e.snap, e.snapErr
}

// analysis returns the entry's rs.Analysis for register type t, computing it
// on first use (all types share the entry's snapshot). The context only
// carries tracing, as in snapshot.
func (e *entry) analysis(ctx context.Context, g *ddg.Graph, t ddg.RegType) (*rs.Analysis, error) {
	e.mu.Lock()
	slot, ok := e.analyses[t]
	if !ok {
		slot = &analysisSlot{}
		e.analyses[t] = slot
	}
	e.mu.Unlock()
	slot.once.Do(func() {
		snap, err := e.snapshot(ctx, g)
		if err != nil {
			slot.err = err
			return
		}
		_, sp := obs.StartSpan(ctx, "rs.analysis", obs.Str("type", string(t)))
		slot.an, slot.err = rs.NewAnalysisIR(snap, t)
		sp.End()
	})
	return slot.an, slot.err
}

// cached returns the result of kind for the (type, options) key, computing
// it on first use: the one memo → L2 → compute path behind every result
// kind. The second return reports whether the result was served from cache
// — the in-memory slot or the L2 result cache (an L2 load seeds the slot,
// so the disk is read at most once per key). The context reaches all the
// way into an in-flight MILP solve, so batch cancellation interrupts it
// instead of waiting the solve out; interrupted computations are not
// memoized. kind doubles as the computation's span name.
func cached[T any](ctx context.Context, m *memo, e *entry, kind, key string, t ddg.RegType,
	l2get func() (T, bool), l2put func(T), compute func(context.Context) (T, error)) (T, bool, error) {
	fromL2 := false
	res, ran, err := slotOf[T](e, kind, key).get(func() (T, error) {
		cctx, sp := obs.StartSpan(ctx, kind, obs.Str("type", string(t)))
		defer sp.End()
		if m.l2 != nil {
			_, lsp := obs.StartSpan(cctx, "l2.get")
			r, ok := l2get()
			lsp.End()
			if ok {
				fromL2 = true
				sp.Event("l2.hit")
				return r, nil
			}
			sp.Event("l2.miss")
		}
		r, cerr := compute(cctx)
		if cerr == nil && m.l2 != nil {
			_, psp := obs.StartSpan(cctx, "l2.put")
			l2put(r)
			psp.End()
		}
		return r, cerr
	})
	switch {
	case !ran:
		m.hits.Add(1)
		obs.FromContext(ctx).Event("memo.hit", obs.Str("type", string(t)))
	case fromL2:
		m.l2hits.Add(1)
	default:
		m.misses.Add(1)
	}
	return res, !ran || fromL2, err
}

// result returns the memoized RS result for (t, opts); see cached.
func (e *entry) result(ctx context.Context, m *memo, g *ddg.Graph, t ddg.RegType, opts rs.Options) (*rs.Result, bool, error) {
	key := string(t) + "|" + rsOptionsKey(opts)
	return cached(ctx, m, e, "batch.rs", key, t,
		func() (*rs.Result, bool) { return m.l2.Get(e.fp, g, t, key) },
		func(r *rs.Result) { m.l2.Put(e.fp, t, key, r) },
		func(ctx context.Context) (*rs.Result, error) {
			an, err := e.analysis(ctx, g, t)
			if err != nil {
				return nil, err
			}
			return rs.ComputeWithAnalysis(ctx, an, opts)
		})
}

// cyclicResult returns the memoized periodic analysis for (t, opts); see
// cached. Cyclic results carry no witness schedules (the window engine
// forces SkipWitness), so an L2 hit needs no per-graph materialization.
func (e *entry) cyclicResult(ctx context.Context, m *memo, l *cyclic.Loop, t ddg.RegType, opts cyclic.Options) (*cyclic.Result, bool, error) {
	key := string(t) + "|" + opts.Key()
	return cached(ctx, m, e, "batch.cyclic", key, t,
		func() (*cyclic.Result, bool) { return m.l2.GetCyclic(e.fp, t, key) },
		func(r *cyclic.Result) { m.l2.PutCyclic(e.fp, t, key, r) },
		func(ctx context.Context) (*cyclic.Result, error) { return cyclic.Analyze(ctx, l, t, opts) })
}

// reduction returns the memoized reduction result for (t, spec), computing
// it on first use; the second return reports whether this call ran the
// reduction (false = served from cache). Reductions whose spec has no
// cache key (a custom Run function the engine cannot identify) are
// computed every time.
//
// Unlike RS results — whose antichains and killing functions are plain node
// IDs, valid in every graph sharing the fingerprint — a reduction result
// carries a concrete extended *Graph. The fingerprint ignores names, so a
// memoized result computed for one input must not be handed verbatim to a
// structural twin with different names: the expensive search (the arcs) is
// reused, but the extended graph and witness schedule are rebuilt over the
// requesting graph.
func (e *entry) reduction(ctx context.Context, g *ddg.Graph, t ddg.RegType, spec *ReduceSpec) (*reduce.Result, bool, error) {
	if spec.Key == "" {
		res, err := spec.Run(ctx, g, t, spec.Budget)
		return res, true, err
	}
	key := fmt.Sprintf("%s|%s|%d", t, spec.Key, spec.Budget)
	// src is the graph the memoized result was computed against; a
	// structurally identical but distinct graph gets the result re-extended
	// over itself, so callers never see another input's names.
	type reduced struct {
		src *ddg.Graph
		res *reduce.Result
	}
	r, ran, err := slotOf[reduced](e, "reduce", key).get(func() (reduced, error) {
		res, err := spec.Run(ctx, g, t, spec.Budget)
		return reduced{g, res}, err
	})
	if err != nil || r.src == g {
		return r.res, ran, err
	}
	adapted := *r.res
	adapted.Graph = g.Extend(r.res.Arcs)
	if r.res.Schedule != nil {
		adapted.Schedule = schedule.New(adapted.Graph, r.res.Schedule.Times)
	}
	return &adapted, ran, nil
}

// rsOptionsKey renders the result-determining fields of rs.Options.
func rsOptionsKey(o rs.Options) string {
	return fmt.Sprintf("m%d|l%d|r%t|w%t|s%s",
		o.Method, o.MaxLeaves, o.ApplyReductions, o.SkipWitness, o.Solver.Key())
}

// Stats reports the cumulative cache behavior of one engine run.
type Stats struct {
	// Hits counts RS computations served from the in-memory memo (a
	// repeated graph or repeated register type under the same options).
	Hits int64
	// L2Hits counts RS computations served from the second-level result
	// cache (always 0 when Options.L2 is nil).
	L2Hits int64
	// Misses counts RS computations actually performed.
	Misses int64
}

func (m *memo) stats() Stats {
	return Stats{Hits: m.hits.Load(), L2Hits: m.l2hits.Load(), Misses: m.misses.Load()}
}
