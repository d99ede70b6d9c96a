// Command rsperf is the regsat benchmark. It drives a real rsd daemon with
// seeded, generated .ddg traffic from a closed loop of two clients, checks
// the answers, and prints end-to-end metrics; with -trace 1 it instead
// replays the same requests in-process and attributes their time to the
// layers (parse, ir, rs, cyclic, solver, store, service) with its own spans.
//
//	rsperf -rsd bin/rsd -work scratch -workload exact-cold -seed 1 -seconds 15 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rsperf:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rsperf", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: exact-cold, ilp-cold, warm-rebuild, large-greedy")
		seed    = fs.Int64("seed", 1, "input seed: the same seed sends byte-identical requests (confirm claims on 424242)")
		seconds = fs.Int("seconds", 15, "run length the workload's fixed request count is sized for")
		trace   = fs.Int("trace", 0, "0: timed run against rsd (end-to-end metrics); 1: traced in-process replay (per-layer metrics)")
		rsdBin  = fs.String("rsd", "", "path of the rsd binary to drive")
		work    = fs.String("work", "", "scratch directory for stores, logs and span files")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || *work == "" || (*trace == 0 && *rsdBin == "") {
		return errors.New("need -seconds ≥ 1, -trace 0|1, -work, and -rsd for timed runs")
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-s%d-t%d-%d", w.name, *seed, *trace, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(filepath.Join(dir, "stores"))

	genStart := time.Now()
	p, err := makePlan(w, *seed, *seconds)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	fmt.Fprintf(stdout, "rsperf: workload=%s seed=%d requests=%d graphs=%d prime=%d checksum=%s (generated in %.2fs)\n",
		w.name, *seed, len(p.timed), graphCount(p.timed), graphCount(p.prime), p.checksum, time.Since(genStart).Seconds())

	var rep *report
	if *trace == 1 {
		rep, err = traced(p, dir, stdout)
	} else {
		rep, err = timed(p, *rsdBin, dir, *seconds, stdout)
	}
	if err != nil {
		return err
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(stdout, "  %-28s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the q-quantile (0..1) of sorted by the nearest-rank
// method.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
