package main

import (
	"bufio"
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"regsat/client"
	"regsat/internal/batch"
	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/ir"
	"regsat/internal/lp"
	"regsat/internal/rs"
	"regsat/internal/service"
	"regsat/internal/service/store"
	"regsat/internal/solver"
)

// span is one interval recorded by the benchmark around a call into a
// layer's public function. Spans stay in memory and are written as NDJSON
// when the run ends.
type span struct {
	Trace  int    `json:"traceId"` // the replayed request's index
	ID     int    `json:"spanId"`
	Parent int    `json:"parent"` // -1 for a request's root span
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the recorder's epoch
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder collects the spans of one pass. A nil recorder records nothing:
// the untraced pass runs the same code with every span call a nil check.
// Recording is single-goroutine (begin/end nest as a stack).
type recorder struct {
	epoch time.Time
	trace int
	spans []span
	stack []int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := r.add(name, parent, time.Now(), time.Time{})
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
	r.stack = r.stack[:len(r.stack)-1]
}

// add records a finished (or, with a zero end, open) span with an explicit
// parent.
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	id := len(r.spans)
	s := span{Trace: r.trace, ID: id, Parent: parent, Name: name, Start: int64(start.Sub(r.epoch))}
	if !end.IsZero() {
		s.End = int64(end.Sub(r.epoch))
	}
	r.spans = append(r.spans, s)
	return id
}

// selfTimes returns, per span name, the summed self time (duration minus
// the durations of direct children).
func (r *recorder) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range r.spans {
		self[s.Name] += s.dur()
		if s.Parent >= 0 {
			self[r.spans[s.Parent].Name] -= s.dur()
		}
	}
	return self
}

// active is the recorder of the layer pass in progress (nil otherwise); the
// solver wrapper records into it.
var active *recorder

// spanBackend wraps the registered "sparse" MILP backend so that every
// solve the rs layer starts runs inside a solver.solve span.
type spanBackend struct{ inner solver.Backend }

func (b spanBackend) Name() string { return b.inner.Name() }

func (b spanBackend) Solve(ctx context.Context, m *lp.Model, opt solver.Options) (*solver.Solution, error) {
	id := active.begin("solver.solve")
	defer active.end(id)
	return b.inner.Solve(ctx, m, opt)
}

// layerSpans are the spans a replay opens around layer calls; the root
// "request" span's self time is the benchmark's own bookkeeping.
var layerSpans = []string{
	"service.decode", "ddg.parse", "ir.fingerprint", "store.get", "ir.build",
	"rs.analysis", "rs.greedy", "rs.bb", "rs.ilp", "solver.solve", "cyclic.analyze", "store.put",
}

// layerPass replays requests by calling each layer's public function the
// way the daemon's request path does, with a span around each call: decode
// the body, parse every graph, fingerprint it, consult the memo (mirrored
// here as an LRU of fingerprints) and the store, and on a miss build the
// ir snapshot, the per-type analysis, run the engine, and store the result.
// Response encoding is not replayed; it is part of the residual.
type layerPass struct {
	rec  *recorder
	st   *store.Store
	memo *fpLRU
	ctx  context.Context

	parsedBytes        int64
	snapMax            int64
	gets, l2, computed int
	puts, ilpCapped    int
	bbLeaves, bbCapped int64
	windows            int64
	solverAgg          solver.Stats
}

// options mirrors the daemon's mapping of wire options onto the engine's
// (internal/service batchOptions), and keys mirror internal/batch's memo
// keys, so the replay reads the records the daemon wrote.
func options(o client.AnalyzeOptions) (rs.Options, cyclic.Options, error) {
	var r rs.Options
	switch o.Method {
	case "", "greedy":
		r.Method = rs.MethodGreedy
	case "bb":
		r.Method = rs.MethodExactBB
	case "ilp":
		r.Method = rs.MethodExactILP
		r.ApplyReductions = true
	default:
		return r, cyclic.Options{}, fmt.Errorf("unknown method %q", o.Method)
	}
	r.MaxLeaves = o.MaxLeaves
	r.SkipWitness = !o.Witness
	r.Solver = solver.Options{
		Backend:   o.Solver.Backend,
		MaxNodes:  o.Solver.MaxNodes,
		TimeLimit: time.Duration(o.Solver.TimeLimitMs) * time.Millisecond,
		Parallel:  o.Solver.Parallel,
	}
	c := cyclic.Options{RS: r}
	if o.Cyclic != nil {
		c.MaxWindow, c.Stable, c.Certify = o.Cyclic.MaxWindow, o.Cyclic.Stable, o.Cyclic.Certify
	}
	return r, c, nil
}

func rsKey(t ddg.RegType, o rs.Options) string {
	return fmt.Sprintf("%s|m%d|l%d|r%t|w%t|s%s", t, o.Method, o.MaxLeaves, o.ApplyReductions, o.SkipWitness, o.Solver.Key())
}

var engineSpan = map[rs.Method]string{
	rs.MethodGreedy:   "rs.greedy",
	rs.MethodExactBB:  "rs.bb",
	rs.MethodExactILP: "rs.ilp",
}

func (p *layerPass) replay(idx int, body []byte) error {
	if p.rec != nil {
		p.rec.trace = idx
	}
	root := p.rec.begin("request")
	defer p.rec.end(root)

	sp := p.rec.begin("service.decode")
	var req client.AnalyzeRequest
	err := json.Unmarshal(body, &req)
	p.rec.end(sp)
	if err != nil {
		return err
	}
	ro, co, err := options(req.Options)
	if err != nil {
		return err
	}
	for _, gi := range req.Graphs {
		var g *ddg.Graph
		var l *cyclic.Loop
		sp := p.rec.begin("ddg.parse")
		if cyclic.Detect(gi.DDG) {
			if l, err = cyclic.ParseString(gi.DDG); err == nil {
				err = l.Validate()
			}
		} else if g, err = ddg.ParseString(gi.DDG); err == nil {
			err = g.Finalize()
		}
		p.rec.end(sp)
		p.parsedBytes += int64(len(gi.DDG))
		if err != nil {
			return err
		}
		if l != nil {
			err = p.loop(l, co)
		} else {
			err = p.graph(g, ro)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (p *layerPass) graph(g *ddg.Graph, o rs.Options) error {
	sp := p.rec.begin("ir.fingerprint")
	fp := ir.Fingerprint(g)
	p.rec.end(sp)
	done := p.memo.entry(fp)
	var snap *ir.Snapshot
	for _, t := range g.Types() {
		key := rsKey(t, o)
		if done[key] {
			continue // memo hit
		}
		sp := p.rec.begin("store.get")
		_, hit := p.st.Get(fp, g, t, key)
		p.rec.end(sp)
		p.gets++
		if hit {
			p.l2++
			done[key] = true
			continue
		}
		if snap == nil {
			sp := p.rec.begin("ir.build")
			s, err := ir.InternFingerprint(g, fp)
			p.rec.end(sp)
			if err != nil {
				return err
			}
			snap = s
			p.snapMax = max(p.snapMax, snap.MemBytes())
		}
		sp = p.rec.begin("rs.analysis")
		an, err := rs.NewAnalysisIR(snap, t)
		p.rec.end(sp)
		if err != nil {
			return err
		}
		active = p.rec
		sp = p.rec.begin(engineSpan[o.Method])
		r, err := rs.ComputeWithAnalysis(p.ctx, an, o)
		p.rec.end(sp)
		active = nil
		if err != nil {
			return err
		}
		p.computed++
		if r.BBStats != nil {
			p.bbLeaves += r.BBStats.Leaves
			if r.BBStats.Capped {
				p.bbCapped++
			}
		}
		if r.SolverStats != nil {
			p.solverAgg.Add(*r.SolverStats)
			if !r.Exact {
				p.ilpCapped++
			}
		}
		sp = p.rec.begin("store.put")
		p.st.Put(fp, t, key, r)
		p.rec.end(sp)
		p.puts++
		done[key] = true
	}
	return nil
}

func (p *layerPass) loop(l *cyclic.Loop, o cyclic.Options) error {
	sp := p.rec.begin("ir.fingerprint")
	fp := l.Fingerprint()
	p.rec.end(sp)
	done := p.memo.entry(fp)
	for _, t := range l.Types() {
		key := string(t) + "|" + o.Key()
		if done[key] {
			continue // memo hit
		}
		sp := p.rec.begin("store.get")
		_, hit := p.st.GetCyclic(fp, t, key)
		p.rec.end(sp)
		p.gets++
		if hit {
			p.l2++
			done[key] = true
			continue
		}
		sp = p.rec.begin("cyclic.analyze")
		r, err := cyclic.Analyze(p.ctx, l, t, o)
		p.rec.end(sp)
		if err != nil {
			return err
		}
		p.computed++
		p.windows += int64(len(r.Windows))
		sp = p.rec.begin("store.put")
		p.st.PutCyclic(fp, t, key, r)
		p.rec.end(sp)
		p.puts++
		done[key] = true
	}
	return nil
}

// fpLRU mirrors the batch memo's residency: an LRU over graph fingerprints
// (batch.DefaultCacheSize entries), each holding the result keys computed
// under it.
type fpLRU struct {
	order   *list.List
	entries map[string]*list.Element
}

type fpEntry struct {
	fp   string
	done map[string]bool
}

func newLRU() *fpLRU { return &fpLRU{order: list.New(), entries: map[string]*list.Element{}} }

func (m *fpLRU) entry(fp string) map[string]bool {
	if el, ok := m.entries[fp]; ok {
		m.order.MoveToFront(el)
		return el.Value.(*fpEntry).done
	}
	e := &fpEntry{fp: fp, done: map[string]bool{}}
	m.entries[fp] = m.order.PushFront(e)
	for len(m.entries) > batch.DefaultCacheSize {
		old := m.order.Back()
		delete(m.entries, old.Value.(*fpEntry).fp)
		m.order.Remove(old)
	}
	return e.done
}

// flushInterner empties the process-wide ir snapshot cache, so no
// execution of a request reuses the snapshots another one built. Shrinking
// the cache to one entry keeps the most recent snapshot, so a one-node
// placeholder graph, which no workload generates, takes that entry.
func flushInterner() {
	ir.SetInternCapacity(1)
	ir.Intern(placeholder)
	ir.SetInternCapacity(ir.DefaultInternCapacity)
}

var placeholder = func() *ddg.Graph {
	g := ddg.New("placeholder", ddg.Superscalar)
	g.SetWrites(g.AddNode("p", "nop", 1), ddg.Int, 0)
	if err := g.Finalize(); err != nil {
		panic(err)
	}
	return g
}()

// handlerStats is what the in-process handler runs measured.
type handlerStats struct {
	handler, roundtrip time.Duration
	respBytes          int64
	run                client.RunStats
	t                  tally
}

// inProcess serves requests one at a time through the daemon's real HTTP
// handler (service.Handler) on an in-process loopback server with one
// batch worker, so its handler time is comparable with the sequential
// layer replay. Each request gets a client.roundtrip root span with the
// service.handler span beneath it.
type inProcess struct {
	ts     *httptest.Server
	hc     *http.Client
	served chan [2]time.Time
	rec    *recorder
	hs     handlerStats
}

func newInProcess(st *store.Store, rec *recorder) (*inProcess, error) {
	srv, err := service.New(service.Config{
		Store: st, Workers: 1, MaxInFlight: 1,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	ip := &inProcess{served: make(chan [2]time.Time, 1), rec: rec}
	ip.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		ip.served <- [2]time.Time{start, time.Now()}
	}))
	ip.hc = ip.ts.Client()
	return ip, nil
}

func (ip *inProcess) serve(i int, r request) error {
	start := time.Now()
	status, body, err := post(context.Background(), ip.hc, ip.ts.URL, r.body)
	end := time.Now()
	if err != nil {
		return err
	}
	sv := <-ip.served
	ip.rec.trace = i
	root := ip.rec.add("client.roundtrip", -1, start, end)
	ip.rec.add("service.handler", root, sv[0], sv[1])
	hs := &ip.hs
	hs.roundtrip += end.Sub(start)
	hs.handler += sv[1].Sub(sv[0])
	hs.respBytes += int64(len(body))
	readResponse(r, status, body, nil, &hs.t)
	var resp struct{ Stats client.RunStats }
	if json.Unmarshal(body, &resp) == nil {
		hs.run.L1Hits += resp.Stats.L1Hits
		hs.run.L2Hits += resp.Stats.L2Hits
		hs.run.Computed += resp.Stats.Computed
	}
	return nil
}

// prime runs a warm workload's Greedy-k warm-up pass through the daemon's
// handler in-process, filling the store at dir.
func prime(reqs []request, st *store.Store) error {
	srv, err := service.New(service.Config{Store: st, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		return err
	}
	h := srv.Handler()
	var t tally
	for _, r := range reqs {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(r.body)))
		readResponse(r, rw.Code, rw.Body.Bytes(), nil, &t)
	}
	if t.failed > 0 {
		return fmt.Errorf("warm-up pass failed on %d graphs: %v", t.failed, t.problems)
	}
	return nil
}

// openStore opens the store a pass uses: the primed one for warm
// workloads (read-only in practice: every timed graph is primed), a fresh
// empty one otherwise.
func openStore(dir, name string, warm bool) (*store.Store, error) {
	if warm {
		return store.Open(filepath.Join(dir, "primed"))
	}
	return store.Open(filepath.Join(dir, name))
}

// meanRecordBytes is the mean size of the result records under dir.
func meanRecordBytes(dir string) float64 {
	var n, total int64
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			if info, err := d.Info(); err == nil {
				n++
				total += info.Size()
			}
		}
		return nil
	})
	return ratio(float64(total), float64(n))
}

// traced replays the workload's first traceShare of requests in-process:
// through the daemon's handler (handler and round-trip time, cache
// accounting) and through the layer replay, traced and untraced, whose
// difference is the spans' own overhead. It reports per-layer self
// time per request and the residual: handler time no layer span covers.
func traced(p *plan, dir string, stdout io.Writer) (*report, error) {
	base, err := solver.Get("sparse")
	if err != nil {
		return nil, err
	}
	solver.Register(spanBackend{base})

	stores := filepath.Join(dir, "stores")
	warm := len(p.prime) > 0
	if warm {
		st, err := store.Open(filepath.Join(stores, "primed"))
		if err != nil {
			return nil, err
		}
		if err := prime(p.prime, st); err != nil {
			return nil, err
		}
	}
	n := max(1, int(float64(len(p.timed))*p.w.traceShare))
	if p.w.roundSize > 0 {
		n = min(n, p.w.roundSize) // one daemon lifetime's worth of memo
	}
	reqs := p.timed[:n]
	graphs := graphCount(reqs)

	// Each request runs three times back to back: through the handler,
	// through the traced layer replay, and through the untraced one, each
	// over its own store and memo and with the ir interner emptied first.
	// Interleaving puts all three under the same heap and machine state.
	newPass := func(rec *recorder, name string) (*layerPass, error) {
		st, err := openStore(stores, name, warm)
		if err != nil {
			return nil, err
		}
		return &layerPass{rec: rec, st: st, memo: newLRU(), ctx: context.Background()}, nil
	}
	st, err := openStore(stores, "handler", warm)
	if err != nil {
		return nil, err
	}
	hrec, rec := newRecorder(), newRecorder()
	ip, err := newInProcess(st, hrec)
	if err != nil {
		return nil, err
	}
	defer ip.ts.Close()
	lr, err := newPass(rec, "traced")
	if err != nil {
		return nil, err
	}
	bare, err := newPass(nil, "untraced")
	if err != nil {
		return nil, err
	}
	var tracedWall, untracedWall time.Duration
	for i, r := range reqs {
		flushInterner()
		if err := ip.serve(i, r); err != nil {
			return nil, err
		}
		for _, pass := range []*layerPass{lr, bare} {
			flushInterner()
			start := time.Now()
			if err := pass.replay(i, r.body); err != nil {
				return nil, fmt.Errorf("layer replay of request %d: %w", i, err)
			}
			if pass == lr {
				tracedWall += time.Since(start)
			} else {
				untracedWall += time.Since(start)
			}
		}
	}
	hs := &ip.hs
	if warm && lr.computed > 0 {
		fmt.Fprintf(stdout, "rsperf: WARNING: the layer replay computed %d results on the primed store; its store keys no longer match the daemon's\n", lr.computed)
	}

	// Residual: the handler time that the replay's layer spans do not
	// cover. The spans directly under each request root cover the replay;
	// nested ones (solver.solve) lie inside their parents.
	self := rec.selfTimes()
	var layered time.Duration
	for _, s := range rec.spans {
		if s.Parent >= 0 && rec.spans[s.Parent].Name == "request" {
			layered += s.dur()
		}
	}
	residual := hs.handler - layered
	perReq := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(len(reqs)) }

	if err := writeSpans(filepath.Join(dir, "spans.ndjson"), hrec, rec); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "rsperf: traced replay of %d requests (%d graphs); handler %.1fms, layer replay %.1fms untraced / %.1fms traced; spans in %s\n",
		len(reqs), graphs, ms(hs.handler), ms(untracedWall), ms(tracedWall), filepath.Join(dir, "spans.ndjson"))
	fmt.Fprintln(stdout, "rsperf: layer self time, share of handler time:")
	for _, name := range layerSpans {
		if self[name] > 0 {
			fmt.Fprintf(stdout, "  %-18s %6.1f%%\n", name, 100*float64(self[name])/float64(hs.handler))
		}
	}
	fmt.Fprintf(stdout, "  %-18s %6.1f%%\n", "(residual)", 100*float64(residual)/float64(hs.handler))
	for _, pr := range hs.t.problems {
		fmt.Fprintln(stdout, "rsperf: FAILED:", pr)
	}

	lookups := float64(hs.run.L1Hits + hs.run.L2Hits + hs.run.Computed)
	m := map[string]metric{
		"service.decode_ms":            {perReq(self["service.decode"]), "ms"},
		"ddg.parse_ms":                 {perReq(self["ddg.parse"]), "ms"},
		"ddg.parse_mb_per_s":           {ratio(float64(lr.parsedBytes)/1e6, self["ddg.parse"].Seconds()), "MB/s"},
		"ir.fingerprint_ms":            {perReq(self["ir.fingerprint"]), "ms"},
		"ir.build_ms":                  {perReq(self["ir.build"]), "ms"},
		"ir.snapshot_mb_max":           {float64(lr.snapMax) / 1e6, "MB"},
		"rs.analysis_ms":               {perReq(self["rs.analysis"]), "ms"},
		"rs.greedy_ms":                 {perReq(self["rs.greedy"]), "ms"},
		"rs.bb_ms":                     {perReq(self["rs.bb"]), "ms"},
		"rs.bb_leaves":                 {float64(lr.bbLeaves), "count"},
		"rs.bb_capped":                 {float64(lr.bbCapped), "count"},
		"rs.ilp_ms":                    {perReq(self["rs.ilp"]), "ms"},
		"rs.exact_share":               {ratio(float64(hs.t.exact), float64(hs.t.results)), "ratio"},
		"cyclic.analyze_ms":            {perReq(self["cyclic.analyze"]), "ms"},
		"cyclic.windows":               {float64(lr.windows), "count"},
		"solver.solve_ms":              {perReq(self["solver.solve"]), "ms"},
		"solver.nodes":                 {float64(lr.solverAgg.Nodes), "count"},
		"solver.simplex_iters":         {float64(lr.solverAgg.SimplexIters), "count"},
		"solver.warm_rate":             {lr.solverAgg.WarmRate(), "ratio"},
		"solver.fallbacks":             {float64(lr.solverAgg.Fallbacks), "count"},
		"solver.capped":                {float64(lr.ilpCapped), "count"},
		"store.get_ms":                 {perReq(self["store.get"]), "ms"},
		"store.hit_ratio":              {ratio(float64(lr.l2), float64(lr.gets)), "ratio"},
		"store.record_bytes":           {meanRecordBytes(lr.st.Dir()), "bytes"},
		"store.put_ms":                 {perReq(self["store.put"]), "ms"},
		"store.puts":                   {float64(lr.puts), "count"},
		"batch.l1_hit_ratio":           {ratio(float64(hs.run.L1Hits), lookups), "ratio"},
		"batch.l2_hit_ratio":           {ratio(float64(hs.run.L2Hits), lookups), "ratio"},
		"batch.computed":               {float64(hs.run.Computed), "count"},
		"service.handler_ms":           {perReq(hs.handler), "ms"},
		"service.residual_ms":          {perReq(residual), "ms"},
		"service.resp_bytes_per_graph": {ratio(float64(hs.respBytes), float64(graphs)), "bytes"},
		"client.roundtrip_ms":          {perReq(hs.roundtrip - hs.handler), "ms"},
		"residual_share":               {ratio(float64(residual), float64(hs.handler)), "ratio"},
		"trace.overhead_ms":            {perReq(tracedWall - untracedWall), "ms"},
	}
	return &report{
		Correct:   hs.t.failed == 0,
		Attempted: graphs,
		Failed:    hs.t.failed,
		Metrics:   m,
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeSpans writes every recorder's spans as NDJSON, sorted by trace then
// start.
func writeSpans(path string, recs ...*recorder) error {
	var all []span
	for _, r := range recs {
		// Span IDs are unique across recorders; times share the first
		// recorder's epoch.
		off, shift := len(all), int64(r.epoch.Sub(recs[0].epoch))
		for _, s := range r.spans {
			s.ID += off
			if s.Parent >= 0 {
				s.Parent += off
			}
			s.Start += shift
			s.End += shift
			all = append(all, s)
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Trace != all[j].Trace {
			return all[i].Trace < all[j].Trace
		}
		return all[i].Start < all[j].Start
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range all {
		enc.Encode(s)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
