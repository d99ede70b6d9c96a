package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var out, errb bytes.Buffer
	err := run(args, &out, &errb)
	return out.String(), errb.String(), err
}

func TestFig2Experiment(t *testing.T) {
	out, _, err := runCLI(t, "-exp", "fig2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[fig2 completed in") {
		t.Fatalf("experiment did not complete:\n%s", out)
	}
}

func TestCorpusJSONArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	out, _, err := runCLI(t, "-exp", "corpus", "-dir", "../../testdata", "-parallel", "4", "-json", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "wrote "+path) {
		t.Fatalf("artifact write not reported:\n%s", out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b benchJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("BENCH.json does not parse: %v", err)
	}
	if b.Corpus == nil || b.Corpus.Files < 20 || len(b.Corpus.PerFile) != b.Corpus.Files {
		t.Fatalf("corpus summary incomplete: %+v", b.Corpus)
	}
	if b.Corpus.SequentialNs <= 0 || b.Corpus.ParallelNs <= 0 {
		t.Fatalf("missing sweep timings: %+v", b.Corpus)
	}
	for _, f := range b.Corpus.PerFile {
		if f.Error != "" {
			t.Fatalf("%s failed: %s", f.Name, f.Error)
		}
		if f.NsOp <= 0 || len(f.RS) == 0 {
			t.Fatalf("per-file record incomplete: %+v", f)
		}
	}
	if len(b.Experiments) == 0 || b.Experiments[len(b.Experiments)-1].Name != "corpus" {
		t.Fatalf("experiment timings missing: %+v", b.Experiments)
	}
}

func TestBadInputs(t *testing.T) {
	if _, _, err := runCLI(t, "-machine", "abacus"); err == nil {
		t.Fatal("bad machine accepted")
	}
	if _, _, err := runCLI(t, "-exp", "corpus", "-dir", "/does/not/exist"); err == nil {
		t.Fatal("missing corpus dir accepted")
	}
	if _, _, err := runCLI(t, "-exp", "fig2", "-baseline", "/does/not/exist.json"); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

// TestFamiliesExperiment: the generated-families sweep produces a complete
// machine-readable section over every registered generator family.
func TestFamiliesExperiment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	out, _, err := runCLI(t, "-exp", "families", "-fam-count", "2", "-json", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[families completed in") {
		t.Fatalf("families sweep did not complete:\n%s", out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b benchJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if b.Families == nil || b.Families.Count != 10 || len(b.Families.PerFile) != 10 {
		t.Fatalf("families summary incomplete: %+v", b.Families)
	}
	for _, family := range []string{"unroll", "grid", "superblock", "exprtree", "layered"} {
		found := false
		for _, f := range b.Families.PerFile {
			if strings.HasPrefix(f.Name, family+"-") {
				found = true
				if f.Error != "" {
					t.Fatalf("%s failed: %s", f.Name, f.Error)
				}
			}
		}
		if !found {
			t.Fatalf("family %s missing from the sweep: %+v", family, b.Families.PerFile)
		}
	}
}

// TestCyclicExperiment: the cyclic loop-family sweep produces a complete
// machine-readable section covering every registered cyclic family, with
// window counts and per-iteration deltas per loop.
func TestCyclicExperiment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	out, _, err := runCLI(t, "-exp", "cyclic", "-fam-count", "2", "-json", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[cyclic completed in") {
		t.Fatalf("cyclic sweep did not complete:\n%s", out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b benchJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if b.Cyclic == nil || b.Cyclic.Count != 4 || len(b.Cyclic.PerFile) != 4 {
		t.Fatalf("cyclic summary incomplete: %+v", b.Cyclic)
	}
	for _, family := range []string{"recurrence", "stencil"} {
		found := false
		for _, f := range b.Cyclic.PerFile {
			if strings.HasPrefix(f.Name, family+"-") {
				found = true
				if f.Error != "" {
					t.Fatalf("%s failed: %s", f.Name, f.Error)
				}
				if f.NsOp <= 0 || f.Windows < 1 || len(f.PerIter) == 0 {
					t.Fatalf("per-loop record incomplete: %+v", f)
				}
			}
		}
		if !found {
			t.Fatalf("cyclic family %s missing from the sweep: %+v", family, b.Cyclic.PerFile)
		}
	}
}

// TestCyclicBaselineGate: cyclic entries participate in the benchcmp gate
// under the cyclic/ namespace — a doctored baseline flags them.
func TestCyclicBaselineGate(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if _, _, err := runCLI(t, "-exp", "cyclic", "-fam-count", "2", "-json", base); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var b benchJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for i := range b.Cyclic.PerFile {
		b.Cyclic.PerFile[i].NsOp /= 1000
	}
	fast, err := json.Marshal(&b)
	if err != nil {
		t.Fatal(err)
	}
	doctored := filepath.Join(dir, "fast.json")
	if err := os.WriteFile(doctored, fast, 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := runCLI(t, "-exp", "cyclic", "-fam-count", "2", "-baseline", doctored, "-threshold", "0.25")
	if err == nil || !strings.Contains(err.Error(), "performance regressed") {
		t.Fatalf("injected cyclic regression not flagged: %v\n%s", err, out)
	}
	if !strings.Contains(out, "cyclic/") {
		t.Fatalf("cyclic namespace missing from report:\n%s", out)
	}
}

// TestBaselineGate drives the full compare mode through the CLI: an
// unchanged run passes, an injected 2x regression fails with the verdict on
// stdout.
func TestBaselineGate(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if _, _, err := runCLI(t, "-exp", "families", "-fam-count", "2", "-json", base); err != nil {
		t.Fatal(err)
	}
	out, _, err := runCLI(t, "-exp", "families", "-fam-count", "2", "-baseline", base, "-threshold", "1000")
	if err != nil {
		t.Fatalf("absurdly tolerant threshold still failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "VERDICT: ok") {
		t.Fatalf("no ok verdict:\n%s", out)
	}

	// Inject a 2x regression by halving every baseline timing.
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var b benchJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for i := range b.Families.PerFile {
		b.Families.PerFile[i].NsOp /= 1000 // current run is now vastly slower
	}
	fast, err := json.Marshal(&b)
	if err != nil {
		t.Fatal(err)
	}
	doctored := filepath.Join(dir, "fast.json")
	if err := os.WriteFile(doctored, fast, 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err = runCLI(t, "-exp", "families", "-fam-count", "2", "-baseline", doctored, "-threshold", "0.25")
	if err == nil || !strings.Contains(err.Error(), "performance regressed") {
		t.Fatalf("injected regression not flagged: %v\n%s", err, out)
	}
	if !strings.Contains(out, "VERDICT: REGRESSED") {
		t.Fatalf("no regression verdict in report:\n%s", out)
	}
}

// TestSolverExperiment: the solver comparison on the corpus agrees with the
// combinatorial exact search everywhere, runs the one engine, and needs no
// numerical recovery.
func TestSolverExperiment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if _, _, err := runCLI(t, "-exp", "solver", "-dir", "../../testdata", "-maxvalues", "8", "-json", path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b benchJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if b.Solver == nil || b.Solver.Cases == 0 || b.Solver.Disagree != 0 {
		t.Fatalf("solver summary: %+v", b.Solver)
	}
	for _, f := range b.Solver.PerFile {
		if !strings.HasSuffix(f.Name, " [sparse]") || f.Error != "" {
			t.Fatalf("unexpected solver entry %+v", f)
		}
	}
}

// TestSolverRecoveryFailsTheRun: a case that needed numerical recovery
// fails the experiment, naming the case.
func TestSolverRecoveryFailsTheRun(t *testing.T) {
	sj := &solverJSON{PerFile: []solverCaseJSON{{Name: "a/float [sparse]"}, {Name: "b/int [sparse]", Fallbacks: 2}}}
	err := sj.recoveryError()
	if err == nil || !strings.Contains(err.Error(), "b/int [sparse] (2)") || strings.Contains(err.Error(), "a/float") {
		t.Fatalf("recoveryError = %v", err)
	}
	sj.PerFile[1].Fallbacks = 0
	if err := sj.recoveryError(); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
}
