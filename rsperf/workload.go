package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"regsat/client"
	"regsat/internal/cyclic"
	"regsat/internal/ddg"
	"regsat/internal/gen"
)

// shape draws one graph's family parameters (size, width, density) from the
// workload's seeded stream; j counts the graphs drawn from this shape so far.
type shape struct {
	family string
	loop   bool // a cyclic family (internal/gen CyclicByName)
	params func(rng *rand.Rand, j int) gen.Params
}

// workload is one benchmark scenario: how its requests are built, how much
// work one run does, and how much of it the output check and the traced run
// replay.
type workload struct {
	name string

	options client.AnalyzeOptions
	// perRequest is the number of graphs per request.
	perRequest int
	// requestsPerSecond fixes the work of a run: a run sends
	// ceil(requestsPerSecond × seconds) requests, sized so one run at the
	// benchmark's defining commit takes about --seconds on a 2-core box.
	requestsPerSecond float64
	// shapes is the acyclic family rotation; loops the cyclic one, used for
	// every loopEvery-th graph (0 = no loops).
	shapes    []shape
	loops     []shape
	loopEvery int

	// prime > 0 makes a warm workload: setup stores Greedy-k results of
	// prime unique structures, restarts the daemon on that store, and the
	// timed requests re-submit draws from them (twinShare of them as
	// structural twins with renamed nodes).
	prime     int
	twinShare float64

	// roundSize > 0 splits the timed requests into rounds of that many, each
	// served by a freshly started daemon (on an empty store, or on the
	// primed one for a warm workload). The daemon's memo holds the
	// snapshots of up to 1,024 graphs, so on graphs of hundreds of nodes
	// one long-lived daemon's memory would grow with the run length; and
	// the median of several rounds' peak RSS is steadier than one peak.
	roundSize int

	// sample is the number of graphs the output check re-requests with
	// witness schedules; traceShare the prefix of requests the traced run
	// replays.
	sample     int
	traceShare float64
}

var machines = []ddg.MachineKind{ddg.Superscalar, ddg.VLIW, ddg.EPIC}

var intFloat = []ddg.RegType{ddg.Int, ddg.Float}

// strata is the number of equal slices each knob's range is cut into.
const strata = 8

// strat draws the j-th value of a shape's knob range [lo, hi] by
// stratified sampling: draw j falls in slice (j·mul) mod strata, at a random
// point inside it. Every seed then covers each knob's whole range in equal
// proportions, so the work of a run varies far less from seed to seed than
// with plain uniform draws. Knobs use different odd multipliers mul, so
// their slices do not move in lockstep (a Latin-hypercube-style design).
func strat(rng *rand.Rand, j, mul, lo, hi int) int {
	u := stratU(rng, j, mul)
	return min(hi, lo+int(u*float64(hi-lo+1)))
}

func stratU(rng *rand.Rand, j, mul int) float64 {
	return (float64((j*mul)%strata) + rng.Float64()) / strata
}

// density draws the j-th density of a shape from [lo, hi], stratified.
func density(rng *rand.Rand, j int, lo, hi float64) float64 {
	return lo + (hi-lo)*stratU(rng, j, 5)
}

// nodesShape returns a family shape whose node count lands in [lo, hi]:
// width is drawn from [wlo, whi] and size (the family's primary knob)
// follows from the drawn node target. Density is drawn from [0.2, 0.5].
func nodesShape(family string, lo, hi, wlo, whi int, perSize func(w int) int) shape {
	return sparseShape(family, lo, hi, wlo, whi, perSize, 0.2, 0.5)
}

// sparseShape is nodesShape with density drawn from [dlo, dhi].
func sparseShape(family string, lo, hi, wlo, whi int, perSize func(w int) int, dlo, dhi float64) shape {
	return shape{family: family, params: func(rng *rand.Rand, j int) gen.Params {
		w := strat(rng, j, 3, wlo, whi)
		n := strat(rng, j, 1, lo, hi)
		return gen.Params{Size: max(1, n/perSize(w)), Width: w, Density: density(rng, j, dlo, dhi)}
	}}
}

func perWidth(w int) int { return w }
func perBlock(w int) int { return w + 2 }

// knobShape draws a family's size and width knobs directly: depth and arity
// for expression trees, chain or stream count and length for loops.
func knobShape(family string, loop bool, slo, shi, wlo, whi int) shape {
	return shape{family: family, loop: loop, params: func(rng *rand.Rand, j int) gen.Params {
		return gen.Params{Size: strat(rng, j, 1, slo, shi), Width: strat(rng, j, 3, wlo, whi), Density: density(rng, j, 0.2, 0.5)}
	}}
}

// blockShapes are basic-block-sized graphs of all five acyclic families
// (about 20–60 nodes), the warm workload's structures.
var blockShapes = []shape{
	nodesShape("unroll", 20, 60, 3, 8, perWidth),
	nodesShape("grid", 16, 40, 3, 6, perWidth),
	nodesShape("superblock", 20, 60, 2, 5, perBlock),
	knobShape("exprtree", false, 4, 5, 2, 2),
	nodesShape("layered", 16, 40, 3, 6, perWidth),
}

var workloads = []*workload{
	{
		name: "exact-cold",
		options: client.AnalyzeOptions{
			Method:    "bb",
			MaxLeaves: 20000,
		},
		perRequest:        8,
		requestsPerSecond: 30,
		roundSize:         64,
		// The exact search's cost grows exponentially past a
		// family-specific size (a 100-node superblock takes ten times a
		// 80-node one, a 90-node grid seconds). These ranges give a few
		// milliseconds per graph with light tails, so the search
		// outweighs the per-graph service and store costs.
		shapes: []shape{
			nodesShape("unroll", 200, 320, 6, 12, perWidth),
			nodesShape("grid", 45, 66, 3, 3, perWidth),
			nodesShape("superblock", 60, 80, 2, 3, perBlock),
			knobShape("exprtree", false, 6, 6, 2, 2),
			nodesShape("layered", 36, 48, 4, 5, perWidth),
		},
		loops: []shape{
			knobShape("recurrence", true, 1, 3, 1, 3),
			knobShape("stencil", true, 1, 3, 1, 3),
		},
		loopEvery:  8,
		sample:     48,
		traceShare: 0.1,
	},
	{
		name: "ilp-cold",
		options: client.AnalyzeOptions{
			Method: "ilp",
			Solver: client.SolverOptions{Backend: "sparse", MaxNodes: 12},
		},
		perRequest:        1,
		requestsPerSecond: 200,
		shapes: []shape{
			nodesShape("unroll", 10, 30, 2, 5, perWidth),
			// Per node of the search tree, grid and layered models cost
			// the most: their ranges stop lower so that a few graphs do
			// not dominate a run's total.
			nodesShape("grid", 10, 24, 2, 5, perWidth),
			nodesShape("superblock", 10, 30, 2, 4, perBlock),
			knobShape("exprtree", false, 3, 3, 2, 2),
			nodesShape("layered", 10, 18, 2, 5, perWidth),
		},
		sample:     48,
		traceShare: 0.1,
	},
	{
		name: "warm-rebuild",
		options: client.AnalyzeOptions{
			Method: "greedy",
		},
		perRequest:        32,
		requestsPerSecond: 190,
		roundSize:         570,
		shapes:            blockShapes,
		prime:             1536,
		twinShare:         0.25,
		sample:            48,
		traceShare:        0.1,
	},
	{
		name: "large-greedy",
		options: client.AnalyzeOptions{
			Method: "greedy",
		},
		perRequest:        1,
		requestsPerSecond: 50,
		roundSize:         40,
		shapes: []shape{
			// Greedy-k's cost grows with the potential-killer count, not
			// only with n: wide grids, wide superblocks and dense layered
			// DAGs of this size take seconds each, which would leave
			// parse and ir build no share at all. These shapes keep
			// Greedy-k within tens of milliseconds per graph.
			nodesShape("unroll", 200, 1000, 4, 16, perWidth),
			nodesShape("grid", 200, 384, 6, 8, perWidth),
			nodesShape("superblock", 200, 256, 2, 3, perBlock),
			knobShape("exprtree", false, 8, 9, 2, 2),
			sparseShape("layered", 200, 1000, 8, 8, perWidth, 0.08, 0.12),
		},
		sample:     10,
		traceShare: 0.1,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// item is one submitted graph with the generated structure the output check
// verifies answers against. A renamed twin keeps only its source and name
// prefix and is rebuilt when the check needs it.
type item struct {
	text  string
	graph *ddg.Graph   // acyclic items (finalized)
	loop  *cyclic.Loop // loop items

	twinOf *item
	prefix string
}

// resolve returns the item with its text and graph materialized.
func (it *item) resolve() (*item, error) {
	if it.twinOf == nil {
		return it, nil
	}
	g, err := renamedTwin(it.twinOf.graph, it.prefix)
	if err != nil {
		return nil, err
	}
	return &item{text: g.Format(), graph: g}, nil
}

// types lists the register types the item writes: one answer is expected
// per type.
func (it *item) types() []ddg.RegType {
	if it.twinOf != nil {
		return it.twinOf.types()
	}
	if it.loop != nil {
		return it.loop.Types()
	}
	return it.graph.Types()
}

// request is one POST /v1/analyze body and the items it carries.
type request struct {
	items []*item
	body  []byte
}

// plan is everything a run sends, generated from the seed alone.
type plan struct {
	w        *workload
	prime    []request // warm setup traffic
	timed    []request
	checksum string // sha256 over every request body, in send order
}

// graphCount returns the number of graph items in reqs.
func graphCount(reqs []request) int {
	n := 0
	for _, r := range reqs {
		n += len(r.items)
	}
	return n
}

// makePlan generates the run's requests. Each graph's parameters come from
// a per-graph seed drawn from one stream, families and machines rotate
// (stratified, so every seed covers every family × machine cell in the same
// proportions), and bodies are marshaled once: the same seed yields
// byte-identical bodies.
func makePlan(w *workload, seed int64, seconds int) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{w: w}
	nreq := int(math.Ceil(w.requestsPerSecond * float64(seconds)))

	if w.prime > 0 {
		pool := make([]*item, w.prime)
		for i := range pool {
			it, err := genItem(w.shapes[i%len(w.shapes)], i/len(w.shapes), machines[(i/len(w.shapes))%len(machines)], rng)
			if err != nil {
				return nil, err
			}
			pool[i] = it
		}
		for i := 0; i < len(pool); i += w.perRequest {
			req, err := w.newRequest(pool[i:min(i+w.perRequest, len(pool))], false)
			if err != nil {
				return nil, err
			}
			p.prime = append(p.prime, req)
		}
		for r := 0; r < nreq; r++ {
			items := make([]*item, w.perRequest)
			for j := range items {
				src := pool[rng.Intn(len(pool))]
				if rng.Float64() < w.twinShare {
					items[j] = &item{twinOf: src, prefix: fmt.Sprintf("t%d_%d_", r, j)}
				} else {
					items[j] = src
				}
			}
			req, err := w.newRequest(items, false)
			if err != nil {
				return nil, err
			}
			p.timed = append(p.timed, req)
		}
	} else {
		acyclic, loops := 0, 0
		for r := 0; r < nreq; r++ {
			items := make([]*item, w.perRequest)
			for j := range items {
				// Every loopEvery-th graph is a loop kernel; the rest rotate
				// through the acyclic families, each family × machine cell
				// once per len(shapes)·len(machines) graphs.
				var it *item
				var err error
				if w.loopEvery > 0 && (acyclic+loops)%w.loopEvery == w.loopEvery-1 {
					j := loops / len(w.loops)
					it, err = genItem(w.loops[loops%len(w.loops)], j, machines[j%len(machines)], rng)
					loops++
				} else {
					j := acyclic / len(w.shapes)
					it, err = genItem(w.shapes[acyclic%len(w.shapes)], j, machines[j%len(machines)], rng)
					acyclic++
				}
				if err != nil {
					return nil, err
				}
				items[j] = it
			}
			req, err := w.newRequest(items, false)
			if err != nil {
				return nil, err
			}
			p.timed = append(p.timed, req)
		}
	}

	h := sha256.New()
	for _, reqs := range [][]request{p.prime, p.timed} {
		for _, r := range reqs {
			h.Write(r.body)
		}
	}
	p.checksum = hex.EncodeToString(h.Sum(nil))[:16]
	return p, nil
}

// newRequest marshals items under the workload's options; witness asks for
// saturating schedules (the output check's re-request).
func (w *workload) newRequest(items []*item, witness bool) (request, error) {
	req := client.AnalyzeRequest{Options: w.options}
	req.Options.Witness = witness
	for _, it := range items {
		it, err := it.resolve()
		if err != nil {
			return request{}, err
		}
		req.Graphs = append(req.Graphs, client.GraphInput{DDG: it.text})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return request{}, err
	}
	return request{items: items, body: body}, nil
}

// genItem draws one graph of shape sh for machine m from rng.
func genItem(sh shape, j int, m ddg.MachineKind, rng *rand.Rand) (*item, error) {
	p := sh.params(rng, j)
	p.Seed = rng.Int63()
	p.Machine = m
	p.Types = intFloat
	if sh.loop {
		f, ok := gen.CyclicByName(sh.family)
		if !ok {
			return nil, fmt.Errorf("unknown cyclic family %q", sh.family)
		}
		l, err := f.Generate(p)
		if err != nil {
			return nil, err
		}
		return &item{text: l.Format(), loop: l}, nil
	}
	f, ok := gen.ByName(sh.family)
	if !ok {
		return nil, fmt.Errorf("unknown family %q", sh.family)
	}
	g, err := f.Generate(p)
	if err != nil {
		return nil, err
	}
	return &item{text: g.Format(), graph: g}, nil
}

// renamedTwin rebuilds g with every node name prefixed: the same structure
// (and so the same ir fingerprint) under different names.
func renamedTwin(g *ddg.Graph, prefix string) (*ddg.Graph, error) {
	h := ddg.New(prefix+g.Name, g.Machine)
	bot := g.Bottom()
	for id, n := range g.Nodes() {
		if id == bot {
			continue
		}
		nid := h.AddNode(prefix+n.Name, n.Op, n.Latency)
		for t, dw := range n.Writes {
			h.SetWrites(nid, t, dw)
		}
		if n.DelayR != 0 {
			h.SetReadDelay(nid, n.DelayR)
		}
	}
	for _, e := range g.Edges() {
		if e.From == bot || e.To == bot {
			continue
		}
		if e.Kind == ddg.Flow {
			h.AddFlowEdgeLatency(e.From, e.To, e.Type, e.Latency)
		} else {
			h.AddSerialEdge(e.From, e.To, e.Latency)
		}
	}
	if err := h.Finalize(); err != nil {
		return nil, err
	}
	return h, nil
}
