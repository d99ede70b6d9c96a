package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"regsat/client"
	"regsat/internal/ddg"
)

// answer is the timed answer for one item: per register type, the RS and
// its exactness (acyclic) or the RS(k) window sequence (loops).
type answer struct {
	rs      map[ddg.RegType]*client.RSOutcome
	windows map[ddg.RegType]*client.CyclicOutcome
}

// tally counts what a set of responses answered.
type tally struct {
	graphs   int // graph items answered without error
	results  int // (graph, type) results returned
	exact    int // results proven exact
	failed   int // items lost to request failures, item errors, or rejected answers
	problems []string
}

func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	if len(t.problems) < 8 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// readResponse decodes one analyze response and checks its shape: HTTP 200,
// no batch error, one item per graph, and one answer per register type each
// graph writes. It returns the per-item answers (nil where an item failed).
func readResponse(req request, status int, body []byte, err error, t *tally) []*answer {
	out := make([]*answer, len(req.items))
	if err != nil {
		t.fail(len(req.items), "request failed: %v", err)
		return out
	}
	if status != http.StatusOK {
		t.fail(len(req.items), "request failed: HTTP %d: %.200s", status, body)
		return out
	}
	var resp client.AnalyzeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.fail(len(req.items), "undecodable response: %v", err)
		return out
	}
	if resp.Error != "" || len(resp.Items) != len(req.items) {
		t.fail(len(req.items), "incomplete response (%d of %d items): %s", len(resp.Items), len(req.items), resp.Error)
		return out
	}
	for i, it := range resp.Items {
		src := req.items[i]
		if it.Error != "" || it.Index != i {
			t.fail(1, "item %d: %s", i, it.Error)
			continue
		}
		a := &answer{rs: map[ddg.RegType]*client.RSOutcome{}, windows: map[ddg.RegType]*client.CyclicOutcome{}}
		ok := true
		for _, ty := range src.types() {
			if src.loop != nil {
				c := it.Cyclic[string(ty)]
				if c == nil || len(c.Windows) == 0 {
					ok = false
					break
				}
				a.windows[ty] = c
				t.results++
				if c.Exact {
					t.exact++
				}
				continue
			}
			r := it.RS[string(ty)]
			if r == nil {
				ok = false
				break
			}
			a.rs[ty] = r
			t.results++
			if r.Exact {
				t.exact++
			}
		}
		if !ok {
			t.fail(1, "item %d: missing a register type's answer", i)
			continue
		}
		t.graphs++
		out[i] = a
	}
	return out
}

// checkWitness certifies one acyclic answer re-requested with a witness
// schedule against the generated graph g and the timed answer:
//
//   - every node but ⊥ has a non-negative issue time and every edge latency
//     holds under it;
//   - the antichain names RS distinct values of type t, all alive at one
//     instant under LT(u) = ]σ(u)+δw(u), max over consumers v of σ(v)+δr(v)];
//   - RS equals the timed answer.
//
// ⊥ is not on the wire. It only has incoming edges, so any time at or after
// its earliest one is valid; the checker places it late enough that it
// never ends a lifetime before the last value is written.
//
// This certifies achievability only: it proves some schedule reaches RS, not
// that no schedule exceeds it.
func checkWitness(g *ddg.Graph, t ddg.RegType, got *client.RSOutcome, timedRS int) error {
	if got.RS != timedRS {
		return fmt.Errorf("%s/%s: RS %d differs from the timed answer %d", g.Name, t, got.RS, timedRS)
	}
	if got.Witness == nil {
		return fmt.Errorf("%s/%s: no witness schedule", g.Name, t)
	}
	bot := g.Bottom()
	sigma := make([]int64, g.NumNodes())
	var latest int64
	for u, n := range g.Nodes() {
		if u == bot {
			continue
		}
		s, ok := got.Witness[n.Name]
		if !ok {
			return fmt.Errorf("%s/%s: witness has no time for node %s", g.Name, t, n.Name)
		}
		if s < 0 {
			return fmt.Errorf("%s/%s: node %s at negative time %d", g.Name, t, n.Name, s)
		}
		sigma[u] = s
		for _, dw := range n.Writes {
			latest = max(latest, s+dw+1)
		}
	}
	if bot >= 0 {
		sigma[bot] = latest
		for _, e := range g.Edges() {
			if e.To == bot {
				sigma[bot] = max(sigma[bot], sigma[e.From]+e.Latency)
			}
		}
	}
	for _, e := range g.Edges() {
		if sigma[e.To]-sigma[e.From] < e.Latency {
			return fmt.Errorf("%s/%s: edge %s→%s violated: σ=%d,%d latency %d", g.Name, t,
				g.Node(e.From).Name, g.Node(e.To).Name, sigma[e.From], sigma[e.To], e.Latency)
		}
	}

	if len(got.Antichain) != got.RS {
		return fmt.Errorf("%s/%s: antichain has %d values for RS %d", g.Name, t, len(got.Antichain), got.RS)
	}
	if got.RS == 0 {
		return nil
	}
	seen := map[string]bool{}
	var maxStart, minEnd int64 = -1 << 62, 1 << 62
	for _, name := range got.Antichain {
		u := g.NodeByName(name)
		if u < 0 || seen[name] {
			return fmt.Errorf("%s/%s: antichain names unknown or repeated node %q", g.Name, t, name)
		}
		seen[name] = true
		n := g.Node(u)
		dw, writes := n.Writes[t]
		if !writes {
			return fmt.Errorf("%s/%s: antichain node %s writes no %s value", g.Name, t, name, t)
		}
		start := sigma[u] + dw
		end := int64(-1 << 62)
		for _, e := range g.Edges() {
			if e.Kind == ddg.Flow && e.From == u && e.Type == t {
				end = max(end, sigma[e.To]+g.Node(e.To).DelayR)
			}
		}
		maxStart, minEnd = max(maxStart, start), min(minEnd, end)
	}
	if maxStart >= minEnd {
		return fmt.Errorf("%s/%s: the %d antichain values are never alive at one instant (latest write %d, earliest kill %d)",
			g.Name, t, got.RS, maxStart, minEnd)
	}
	return nil
}

// checkWindows certifies one loop answer: RS(k) is non-decreasing in the
// window size k, and the re-requested sequence equals the timed one.
func checkWindows(name string, t ddg.RegType, got, timed *client.CyclicOutcome) error {
	for k := 1; k < len(got.Windows); k++ {
		if got.Windows[k] < got.Windows[k-1] {
			return fmt.Errorf("%s/%s: RS(%d)=%d < RS(%d)=%d", name, t, k+1, got.Windows[k], k, got.Windows[k-1])
		}
	}
	if fmt.Sprint(got.Windows) != fmt.Sprint(timed.Windows) {
		return fmt.Errorf("%s/%s: windows %v differ from the timed answer %v", name, t, got.Windows, timed.Windows)
	}
	return nil
}

// checkAnswer runs the witness or window check on every type of one item.
func checkAnswer(it *item, got, timed *answer) error {
	it, err := it.resolve()
	if err != nil {
		return err
	}
	for _, ty := range it.types() {
		if it.loop != nil {
			if err := checkWindows(it.loop.Name, ty, got.windows[ty], timed.windows[ty]); err != nil {
				return err
			}
			continue
		}
		if err := checkWitness(it.graph, ty, got.rs[ty], timed.rs[ty].RS); err != nil {
			return err
		}
	}
	return nil
}
