package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// clients is the closed loop's concurrency: two compile jobs that each
	// wait for their reply, like make -j2 on a 2-core box.
	clients = 2
	// launches is how many times setup starts the daemon; setup_s reports
	// the median launch-to-ready time (plus the warm-up, where one exists).
	launches = 5
	// witnessBatch bounds the graphs per output-check request.
	witnessBatch = 8
)

// outcome is one timed request's reply.
type outcome struct {
	sent    bool
	status  int
	body    []byte
	err     error
	latency time.Duration
}

// timed runs the workload against a real rsd: setup (launches, plus the
// warm-up pass and restart for warm workloads), the timed closed loop, the
// /proc samples, then the untimed output check.
func timed(p *plan, bin, dir string, seconds int, stdout io.Writer) (rep *report, err error) {
	storeDir := filepath.Join(dir, "stores", "rsd")
	hc := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
		Timeout:   120 * time.Second,
	}
	var d *daemon
	defer func() { d.stop() }()
	launch := func() (time.Duration, error) {
		d.stop()
		var ready time.Duration
		var err error
		d, ready, err = startDaemon(bin, storeDir, filepath.Join(dir, "rsd.log"))
		return ready, err
	}

	// Setup. A warm workload's first launch serves the Greedy-k warm-up
	// pass; every later launch restarts on the primed store, so the daemon
	// left running starts with an empty memo over a full store.
	var readies []float64
	var warmup time.Duration
	for i := 0; i < launches; i++ {
		ready, err := launch()
		if err != nil {
			return nil, err
		}
		readies = append(readies, ready.Seconds())
		if i == 0 && len(p.prime) > 0 {
			start := time.Now()
			var t tally
			for _, r := range p.prime {
				status, body, err := post(context.Background(), hc, d.base, r.body)
				readResponse(r, status, body, err, &t)
			}
			warmup = time.Since(start)
			if t.failed > 0 {
				return nil, fmt.Errorf("warm-up pass failed on %d graphs: %v", t.failed, t.problems)
			}
		}
	}
	// Timed: one round per daemon lifetime (a single round unless the
	// workload sets roundSize). CPU and peak RSS are sampled from /proc
	// around each round.
	rounds := [][]request{p.timed}
	if n := p.w.roundSize; n > 0 {
		rounds = nil
		for lo := 0; lo < len(p.timed); lo += n {
			rounds = append(rounds, p.timed[lo:min(lo+n, len(p.timed))])
		}
	}
	limit := min(max(4*time.Duration(seconds)*time.Second, time.Duration(seconds+60)*time.Second), 150*time.Second)
	var (
		results []outcome
		wall    time.Duration
		cpu     time.Duration
		hwms    []float64
	)
	for r, reqs := range rounds {
		if r > 0 {
			// A cold workload's round starts on an empty store, a warm
			// one's on the primed store again.
			if len(p.prime) == 0 {
				os.RemoveAll(storeDir)
				storeDir = filepath.Join(dir, "stores", fmt.Sprintf("rsd-%d", r))
			}
			ready, err := launch()
			if err != nil {
				return nil, err
			}
			readies = append(readies, ready.Seconds())
		}
		pid := d.cmd.Process.Pid
		cpu0, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		out, took := closedLoop(hc, d.base, reqs, limit-wall)
		cpu1, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		hwm, err := procHWM(pid)
		if err != nil {
			return nil, err
		}
		results = append(results, out...)
		wall += took
		cpu += cpu1 - cpu0
		hwms = append(hwms, hwm)
	}
	setup := median(readies) + warmup.Seconds()

	var t tally
	answers := make([][]*answer, len(p.timed))
	var lat []float64
	for i, r := range results {
		if !r.sent {
			t.fail(len(p.timed[i].items), "request %d not sent: the run hit its %s cap", i, limit)
			continue
		}
		answers[i] = readResponse(p.timed[i], r.status, r.body, r.err, &t)
		lat = append(lat, float64(r.latency)/float64(time.Millisecond))
	}
	sort.Float64s(lat)

	checked := outputCheck(p, hc, d.base, answers, &t)

	attempted := graphCount(p.timed)
	graphs := float64(t.graphs)
	fmt.Fprintf(stdout, "rsperf: %d requests in %d round(s) (%d latency samples, %d beyond p90) in %.3fs; setup %.3fs (median of %d launches %.4fs + warm-up %.3fs)\n",
		len(p.timed), len(rounds), len(lat), len(lat)-int(0.9*float64(len(lat))+0.999999), wall.Seconds(),
		setup, len(readies), median(readies), warmup.Seconds())
	fmt.Fprintf(stdout, "rsperf: output check re-requested %d graphs with witnesses; %d results, %d failed\n",
		checked, t.results, t.failed)
	fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", "exact_share", ratio(float64(t.exact), float64(t.results)), "ratio")
	fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", "failed_share", ratio(float64(t.failed), float64(attempted)), "ratio")
	for _, pr := range t.problems {
		fmt.Fprintln(stdout, "rsperf: FAILED:", pr)
	}
	if graphs == 0 {
		return nil, fmt.Errorf("no graph was answered: %v", t.problems)
	}
	return &report{
		Correct:   t.failed == 0,
		Attempted: attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"graphs_per_s":     {graphs / wall.Seconds(), "graphs/s"},
			"latency_p50_ms":   {percentile(lat, 0.50), "ms"},
			"latency_p90_ms":   {percentile(lat, 0.90), "ms"},
			"peak_rss_mb":      {median(hwms), "MB"},
			"cpu_ms_per_graph": {float64(cpu) / float64(time.Millisecond) / graphs, "ms"},
			"setup_s":          {setup, "s"},
		},
	}, nil
}

// closedLoop sends reqs in order from clients concurrent senders, each
// waiting for its reply before taking the next request. Senders stop taking
// requests once limit has passed.
func closedLoop(hc *http.Client, base string, reqs []request, limit time.Duration) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || time.Since(start) > limit {
					return
				}
				t := time.Now()
				status, body, err := post(context.Background(), hc, base, reqs[i].body)
				out[i] = outcome{sent: true, status: status, body: body, err: err, latency: time.Since(t)}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// outputCheck re-requests an evenly spaced sample of answered graphs with
// witness schedules and certifies each answer (checkAnswer). A rejected
// answer counts as a failed item. It returns the number of graphs checked.
func outputCheck(p *plan, hc *http.Client, base string, answers [][]*answer, t *tally) int {
	type ref struct {
		it    *item
		timed *answer
	}
	var all []ref
	for i, req := range p.timed {
		for j, it := range req.items {
			if answers[i] != nil && answers[i][j] != nil {
				all = append(all, ref{it, answers[i][j]})
			}
		}
	}
	n := min(p.w.sample, len(all))
	sample := make([]ref, n)
	for k := range sample {
		sample[k] = all[k*len(all)/n]
	}
	for lo := 0; lo < n; lo += witnessBatch {
		batch := sample[lo:min(lo+witnessBatch, n)]
		items := make([]*item, len(batch))
		for k, r := range batch {
			items[k] = r.it
		}
		req, err := p.w.newRequest(items, true)
		if err != nil {
			t.fail(len(batch), "output check: %v", err)
			continue
		}
		status, body, err := post(context.Background(), hc, base, req.body)
		var ct tally
		got := readResponse(req, status, body, err, &ct)
		for k, r := range batch {
			if got[k] == nil {
				t.fail(1, "output check: re-request failed: %v", ct.problems)
				continue
			}
			if err := checkAnswer(r.it, got[k], r.timed); err != nil {
				t.fail(1, "output check rejected: %v", err)
			}
		}
	}
	return n
}
