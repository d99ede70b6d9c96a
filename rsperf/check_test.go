package main

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"regsat/client"
	"regsat/internal/ddg"
	"regsat/internal/ir"
	"regsat/internal/rs"
)

// pair: two independent load→store chains. Both loaded values can be alive
// at once (RS = 2), but a schedule may also serialize the chains.
const pair = `ddg "pair" machine=superscalar
node a op=ld lat=2 writes=float
node b op=ld lat=3 writes=float
node c op=st lat=1
node d op=st lat=1
edge a c flow float
edge b d flow float
`

func parsed(t *testing.T, text string) *ddg.Graph {
	t.Helper()
	g, err := ddg.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

// wire renders an rs result the way the daemon does: names, not IDs, and no
// time for ⊥.
func wire(g *ddg.Graph, r *rs.Result) *client.RSOutcome {
	out := &client.RSOutcome{RS: r.RS, Exact: r.Exact, Witness: map[string]int64{}}
	for _, id := range r.Antichain {
		out.Antichain = append(out.Antichain, g.Node(id).Name)
	}
	for u := range g.Nodes() {
		if u != g.Bottom() {
			out.Witness[g.Node(u).Name] = r.Witness.Times[u]
		}
	}
	return out
}

func exactAnswer(t *testing.T, g *ddg.Graph) *client.RSOutcome {
	t.Helper()
	r, err := rs.Compute(context.Background(), g, ddg.Float, rs.Options{Method: rs.MethodExactBB})
	if err != nil {
		t.Fatal(err)
	}
	return wire(g, r)
}

func TestCheckWitnessAcceptsTheEngineAnswer(t *testing.T) {
	g := parsed(t, pair)
	got := exactAnswer(t, g)
	if got.RS != 2 {
		t.Fatalf("RS = %d, want 2", got.RS)
	}
	if err := checkWitness(g, ddg.Float, got, 2); err != nil {
		t.Fatal(err)
	}
}

func TestCheckWitnessRejectsCorruptedAnswers(t *testing.T) {
	g := parsed(t, pair)
	cases := map[string]func(o *client.RSOutcome) int{
		"edge latency violated": func(o *client.RSOutcome) int {
			o.Witness["d"] = o.Witness["b"] + 2 // b→d needs 3 cycles
			return o.RS
		},
		"negative time": func(o *client.RSOutcome) int {
			o.Witness["a"] = -1
			return o.RS
		},
		"missing node": func(o *client.RSOutcome) int {
			delete(o.Witness, "d")
			return o.RS
		},
		"values never alive together": func(o *client.RSOutcome) int {
			// a dies when c reads it; issuing b after that serializes
			// the two lifetimes, ]0,2] and ]3,6].
			o.Witness = map[string]int64{"a": 0, "c": 2, "b": 3, "d": 6}
			return o.RS
		},
		"antichain value of another type": func(o *client.RSOutcome) int {
			o.Antichain = []string{"a", "c"}
			return o.RS
		},
		"repeated antichain value": func(o *client.RSOutcome) int {
			o.Antichain = []string{"a", "a"}
			return o.RS
		},
		"antichain shorter than RS": func(o *client.RSOutcome) int {
			o.Antichain = o.Antichain[:1]
			return o.RS
		},
		"RS differs from the timed answer": func(o *client.RSOutcome) int {
			return o.RS + 1
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			got := exactAnswer(t, g)
			timedRS := corrupt(got)
			if err := checkWitness(g, ddg.Float, got, timedRS); err == nil {
				t.Fatalf("corrupted answer accepted: %+v", got)
			}
		})
	}
}

func TestCheckWindows(t *testing.T) {
	timed := &client.CyclicOutcome{Windows: []int{1, 2, 2, 3}}
	if err := checkWindows("loop", ddg.Int, &client.CyclicOutcome{Windows: []int{1, 2, 2, 3}}, timed); err != nil {
		t.Fatal(err)
	}
	if err := checkWindows("loop", ddg.Int, &client.CyclicOutcome{Windows: []int{1, 3, 2, 3}}, timed); err == nil {
		t.Fatal("decreasing RS(k) accepted")
	}
	if err := checkWindows("loop", ddg.Int, &client.CyclicOutcome{Windows: []int{1, 2, 3, 3}}, timed); err == nil {
		t.Fatal("windows differing from the timed answer accepted")
	}
}

// Every workload's generated answers pass the checker when computed
// in-process, so a rejection in a run points at the daemon, not the
// generator or the checker.
func TestGeneratedGraphsPassTheChecker(t *testing.T) {
	for _, w := range workloads {
		if w.name == "large-greedy" || w.options.Method != "bb" {
			continue
		}
		p, err := makePlan(w, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range p.timed[0].items {
			if it.graph == nil {
				continue
			}
			for _, ty := range it.types() {
				r, err := rs.Compute(context.Background(), it.graph, ty, rs.Options{Method: rs.MethodExactBB, MaxLeaves: w.options.MaxLeaves})
				if err != nil {
					t.Fatal(err)
				}
				if err := checkWitness(it.graph, ty, wire(it.graph, r), r.RS); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, w := range workloads {
		a, err := makePlan(w, 11, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := makePlan(w, 11, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := makePlan(w, 12, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.checksum != b.checksum || len(a.timed) != len(b.timed) {
			t.Fatalf("%s: same seed, different inputs", w.name)
		}
		for i := range a.timed {
			if !bytes.Equal(a.timed[i].body, b.timed[i].body) {
				t.Fatalf("%s: request %d differs between two runs of one seed", w.name, i)
			}
		}
		if a.checksum == c.checksum {
			t.Fatalf("%s: seeds 11 and 12 give the same inputs", w.name)
		}
	}
}

func TestRenamedTwinKeepsTheFingerprintAndChangesTheText(t *testing.T) {
	g := parsed(t, pair)
	twin, err := renamedTwin(g, "x_")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(twin.Format(), "node x_a ") {
		t.Fatal("twin kept the original names")
	}
	if ir.Fingerprint(parsed(t, twin.Format())) != ir.Fingerprint(g) {
		t.Fatal("twin changed the structure")
	}
}

func TestProcSamples(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	if mb, err := procHWM(os.Getpid()); err != nil || mb <= 0 {
		t.Fatalf("VmHWM = %v, %v", mb, err)
	}
	if _, err := procHWM(1 << 30); err == nil {
		t.Fatal("a missing process gave an RSS sample")
	}
}
