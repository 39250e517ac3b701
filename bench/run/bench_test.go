package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/score-dc/score"
	"github.com/score-dc/score/bench/span"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// toySizes lets `go test` run every workload in seconds.
func toySizes() sizes {
	return sizes{
		name:      "toy",
		convergeK: 4, vmsPerHost: 30, convergePasses: 2, roundsPerPass: 4,
		daemonK:        4,
		ingestRequests: 40, ingestBatch: 64, ingestWarm: 4,
		reactCycles: 6, reactWarm: 1, reactGroup: 8,
		minPasses: 1, minRequests: 8, minCycles: 3, minRuns: 3,
		paperTree:       score.ScaledCanonicalConfig(8, 4),
		paperVMsPerHost: 4, paperRuns: 6, paperWarm: 1, paperPasses: 2,
	}
}

func toyOptions(t *testing.T, outDir, workload string, trace bool) options {
	t.Helper()
	benchDir, err := findBenchDir()
	if err != nil {
		t.Fatal(err)
	}
	repoDir := filepath.Dir(benchDir)
	decl, err := loadDeclared(repoDir)
	if err != nil {
		t.Fatal(err)
	}
	return options{
		workload: workload, seed: defaultSeed, seconds: refSeconds, trace: trace,
		size: toySizes(), decl: decl,
		benchDir: benchDir, repoDir: repoDir, outDir: outDir,
	}
}

func checkNames(t *testing.T, got map[string]metricValue, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics emitted, %d declared", len(got), len(want))
	}
	for _, d := range want {
		v, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("declared metric %s not emitted", d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s emitted in %q, declared in %q", d.Name, v.Unit, d.Unit)
		}
	}
}

// TestWorkloadsSmoke runs every workload at toy size, untraced and
// traced: each must pass its own output checks, emit exactly the
// declared metric names, and leave a well-formed span tree.
func TestWorkloadsSmoke(t *testing.T) {
	outDir := t.TempDir() // shared, so the scored binary is linked once
	for _, name := range workloadNames {
		name := name
		t.Run(name, func(t *testing.T) {
			opt := toyOptions(t, outDir, name, false)
			res, err := execute(opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			checkNames(t, res.Metrics, opt.decl.EndToEnd)
			for _, quality := range []string{"cost_ratio", "moves_per_vm", "p50_ms", "tail_ms", "run_s", "peak_rss_mb"} {
				if res.Metrics[quality].Value <= 0 {
					t.Errorf("%s = %v, want a positive number", quality, res.Metrics[quality].Value)
				}
			}

			traced, err := execute(toyOptions(t, outDir, name, true))
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Fatalf("traced run failed: %v", traced.Failures)
			}
			checkNames(t, traced.Metrics, opt.decl.PerLayer)
			checkSpanFile(t, filepath.Join(outDir, name+".trace.json"))
		})
	}
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span.Span
	if err := json.Unmarshal(buf, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	roots := map[int32]int{}
	for i, s := range spans {
		if s.ID != int32(i) {
			t.Fatalf("span %d carries ID %d", i, s.ID)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		switch {
		case s.Parent == -1 && s.Op >= 0:
			roots[s.Op]++
		case s.Parent >= 0:
			if int(s.Parent) >= len(spans) {
				t.Fatalf("span %d names missing parent %d", s.ID, s.Parent)
			}
			p := spans[s.Parent]
			if p.Op != s.Op || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				t.Errorf("span %d (%s, op %d) does not nest in its parent %d (%s, op %d)", s.ID, s.Name, s.Op, p.ID, p.Name, p.Op)
			}
		}
	}
	for op, n := range roots {
		if n != 1 {
			t.Errorf("op %d has %d root spans", op, n)
		}
	}
	for i, ns := range span.SelfNs(spans) {
		if ns < 0 {
			t.Errorf("span %d (%s) has negative self time %d ns", i, spans[i].Name, ns)
		}
	}
}

// TestBenchmarkJSON checks the declaration the runner loads against
// what it implements and against the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	decl := toyOptions(t, "", "", false).decl
	if decl.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the work sizes are fitted to %d", decl.RunSeconds, refSeconds)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q with a %d-character why", i, w.Name, len(w.Why))
		}
	}
	if len(decl.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics declared, the driver takes 128", len(decl.PerLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), decl.EndToEnd...), decl.PerLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside the allowed alphabet", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("%s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range decl.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestEndToEndImports proves the end-to-end half reaches the program
// only through its public surface: the runner and the packages it is
// compiled with may import the standard library, the root score package
// and one another — never score/internal/..., and never bench/ladder,
// the separate program that does.
func TestEndToEndImports(t *testing.T) {
	benchDir, err := findBenchDir()
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{
		"github.com/score-dc/score":            true,
		"github.com/score-dc/score/bench/gen":  true,
		"github.com/score-dc/score/bench/span": true,
		"github.com/score-dc/score/bench/stat": true,
	}
	for _, pkg := range []string{"run", "span", "gen", "stat"} {
		files, err := filepath.Glob(filepath.Join(benchDir, pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files in %s: %v", pkg, err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				std := !strings.Contains(strings.SplitN(path, "/", 2)[0], ".")
				if !std && !allowed[path] {
					t.Errorf("%s imports %s", filepath.Base(file), path)
				}
			}
		}
	}
}
