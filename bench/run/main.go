// Command run is the S-CORE benchmark: one fresh process per workload,
// a timed phase of fixed work, output checks, and one JSON result.
//
//	go run -C bench ./run -workload converge|ingest|react|paper
//	       [-seed N] [-seconds S] [-trace 0|1]
//	go run -C bench ./run -aa N [-workload W]
//
// See ../README.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/score-dc/score/bench/span"
	"github.com/score-dc/score/bench/stat"
)

// processStart anchors setup_s: package initialisation runs within
// microseconds of exec.
var processStart = time.Now()

const defaultSeed = 20140630

// tracedQuarters is how many stretches a traced run splits the fixed
// work into, alternating spans off and on.
const tracedQuarters = 4

// options is one run's command line and what it runs against.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     sizes
	decl     *declared // BENCHMARK.json
	benchDir string    // the bench module's root
	repoDir  string    // the program's module root, benchDir's parent
	outDir   string    // benchDir/out
}

// scale is the share of the reference work this run does.
func (o options) scale() float64 { return o.seconds / refSeconds }

// scaled returns n reference units of work scaled by f, at least min.
func scaled(n int, f float64, min int) int {
	v := int(float64(n)*f + 0.5)
	if v < min {
		v = min
	}
	return v
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run prints as its last line (the four contract keys)
// and writes, with the rest, to out/<workload>.result.json.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type resultFile struct {
	result
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Seconds  float64         `json:"seconds"`
	Trace    bool            `json:"trace"`
	Size     string          `json:"size"`
	Host     hostFingerprint `json:"host"`
	Failures []string        `json:"failures,omitempty"`
	Notes    map[string]any  `json:"notes"`
}

// run collects what the phases of one workload measure.
type run struct {
	opt       options
	attempted int
	failed    int
	failures  []string
	notes     map[string]any

	// m measures every time the run reports; see meter.go.
	m meter
	// ownCPUS is the CPU time the runner spent on work of its own inside
	// an in-process workload's loop.
	ownCPUS float64
}

// untimed runs f off the clocks: it lies in no measured stretch, and
// the CPU time it takes comes off an in-process workload's cpu_s. It is
// for the runner's own work inside such a workload's loop — building an
// op's inputs, checking its outputs — which would otherwise count as
// the program's.
func (r *run) untimed(f func() error) error {
	cpu0 := stat.SelfCPUSeconds()
	err := f()
	r.ownCPUS += stat.SelfCPUSeconds() - cpu0
	r.m.skip()
	return err
}

// selfCPUSeconds is the CPU time of an in-process workload so far: the
// process's, less the reference blocks and the runner's own work.
func (r *run) selfCPUSeconds() float64 {
	return stat.SelfCPUSeconds() - r.m.blockCPUS - r.ownCPUS
}

// failOp counts one failed op and keeps the first few reasons.
func (r *run) failOp(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark scenario. setup builds the instance and
// warms it up, marking its stages on the run's meter; work does a share
// of the fixed timed work, recording every op on the meter (and
// counting attempts and failures on the run); finish runs the
// end-of-run checks, fills the quality metrics and releases the process
// under test; ladder is the traced run's per-layer pass.
type workload interface {
	setup(r *run) error
	work(r *run, share float64, rec *span.Recorder) error
	// cpuSeconds is the CPU time consumed so far by the process under
	// test.
	cpuSeconds(r *run) (float64, error)
	// tailMs is the workload's tail statistic over its speed-adjusted op
	// latencies.
	tailMs(latMs []float64) float64
	finish(r *run) (quality, error)
	ladder(r *run, spans []span.Span) (map[string]float64, error)
	close()
}

// quality is the part of the result that is exact per seed.
type quality struct {
	costRatio  float64
	movesPerVM float64
	peakRSSMB  float64
}

// phase is one timed stretch of work. Its times are speed-adjusted;
// the raw ones are kept for the notes.
type phase struct {
	latMs, rawLatMs         []float64
	runS, cpuS              float64
	rawRunS, rawCPUS, wallS float64
	index                   []float64 // per phase measured: median speed index
}

// add appends q, a later share of the same fixed work.
func (p *phase) add(q phase) {
	p.latMs = append(p.latMs, q.latMs...)
	p.rawLatMs = append(p.rawLatMs, q.rawLatMs...)
	p.runS += q.runS
	p.cpuS += q.cpuS
	p.rawRunS += q.rawRunS
	p.rawCPUS += q.rawCPUS
	p.wallS += q.wallS
	p.index = append(p.index, q.index...)
}

func measure(w workload, r *run, share float64, rec *span.Recorder) (phase, error) {
	var p phase
	t0 := time.Now()
	r.m.begin(t0)
	cpu0, err := w.cpuSeconds(r)
	if err != nil {
		return p, err
	}
	if err := w.work(r, share, rec); err != nil {
		return p, err
	}
	cpu1, err := w.cpuSeconds(r)
	if err != nil {
		return p, err
	}
	r.m.end()
	a := r.m.adjust()
	p.latMs, p.rawLatMs = a.opMs, a.rawOpMs
	p.runS, p.rawRunS = a.totalS, a.rawS
	// CPU time is read for the phase as a whole, so it is adjusted by
	// the phase's overall factor.
	p.rawCPUS = cpu1 - cpu0
	p.cpuS = p.rawCPUS * a.totalS / a.rawS
	p.wallS = time.Since(t0).Seconds()
	p.index = []float64{a.indexP50}
	return p, nil
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "converge":
		return &converge{}, nil
	case "ingest":
		return &ingest{}, nil
	case "react":
		return &react{}, nil
	case "paper":
		return &paper{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want converge, ingest, react or paper)", name)
}

var workloadNames = []string{"converge", "ingest", "react", "paper"}

// execute runs one workload start to finish and returns its result.
func execute(opt options) (*resultFile, error) {
	w, err := newWorkload(opt.workload)
	if err != nil {
		return nil, err
	}
	defer w.close()
	r := &run{opt: opt, notes: map[string]any{}}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	// setup_s runs from process start and excludes compiling the program
	// (build_s in the notes; buildScored skips it on the meter): that is
	// the toolchain's time, and the first run in a checkout pays all of
	// it.
	r.m.begin(processStart)
	if err := w.setup(r); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	r.m.lap()
	r.m.end()
	setup := r.m.adjust()
	r.notes["raw_setup_s"] = setup.rawS
	r.notes["setup_speed_index"] = setup.indexP50

	var main phase
	var rec *span.Recorder
	overhead := 0.0
	if !opt.trace {
		if main, err = measure(w, r, 1, nil); err != nil {
			return nil, fmt.Errorf("timed phase: %w", err)
		}
	} else {
		// A traced run does the fixed work in four quarters — spans off,
		// on, off, on — so the overhead ratio compares like with like
		// inside one process and slow host drift weighs on both sides.
		rec = span.NewRecorder()
		plainS := 0.0
		for i := 0; i < tracedQuarters; i++ {
			var p phase
			if i%2 == 0 {
				if p, err = measure(w, r, 1.0/tracedQuarters, nil); err != nil {
					return nil, fmt.Errorf("untraced quarter: %w", err)
				}
				plainS += p.runS
				continue
			}
			if p, err = measure(w, r, 1.0/tracedQuarters, rec); err != nil {
				return nil, fmt.Errorf("traced quarter: %w", err)
			}
			main.add(p)
		}
		overhead = main.runS / plainS
		r.notes["untraced_run_s"] = plainS
	}
	q, err := w.finish(r)
	if err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}

	e2e := map[string]float64{
		"setup_s":      setup.totalS,
		"run_s":        main.runS,
		"cpu_s":        main.cpuS,
		"p50_ms":       stat.Median(main.latMs),
		"tail_ms":      w.tailMs(main.latMs),
		"peak_rss_mb":  q.peakRSSMB,
		"cost_ratio":   q.costRatio,
		"moves_per_vm": q.movesPerVM,
	}
	r.notes["ops"] = len(main.latMs)
	pct := map[string]float64{}
	for _, p := range []float64{10, 25, 50, 75, 90, 95, 99, 100} {
		pct[fmt.Sprintf("p%g", p)] = stat.Percentile(main.latMs, p)
	}
	r.notes["latency_ms"] = pct
	if len(main.latMs) <= 512 {
		r.notes["op_ms"] = main.latMs // speed-adjusted, in op order
	}
	r.notes["ops_per_s"] = float64(len(main.latMs)) / main.runS
	if n, ok := r.notes["samples"].(int); ok {
		r.notes["samples_per_s"] = float64(n) / main.runS
	}
	// What the clock read, before the speed adjustment.
	r.notes["raw_run_s"] = main.rawRunS
	r.notes["raw_cpu_s"] = main.rawCPUS
	r.notes["raw_p50_ms"] = stat.Median(main.rawLatMs)
	r.notes["phase_wall_s"] = main.wallS // ops, reference blocks and the runner's own work
	r.notes["speed_index"] = stat.Median(main.index)

	out := &resultFile{
		Workload: opt.workload, Seed: opt.seed, Seconds: opt.seconds,
		Trace: opt.trace, Size: opt.size.name, Host: fingerprint(opt.repoDir),
		Failures: r.failures, Notes: r.notes,
	}
	out.Attempted, out.Failed = r.attempted, r.failed
	out.Metrics = map[string]metricValue{}
	if !opt.trace {
		for _, d := range opt.decl.EndToEnd {
			out.Metrics[d.Name] = metricValue{e2e[d.Name], d.Unit}
		}
	} else {
		spans := rec.Spans()
		if err := span.WriteFile(filepath.Join(opt.outDir, opt.workload+".trace.json"), spans); err != nil {
			return nil, err
		}
		layer, err := w.ladder(r, spans)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		layer["trace.overhead_ratio"] = overhead
		for _, d := range opt.decl.PerLayer {
			v, ok := layer[d.Name]
			if !ok {
				return nil, fmt.Errorf("ladder did not report %s", d.Name)
			}
			out.Metrics[d.Name] = metricValue{v, d.Unit}
		}
		r.notes["traced_end_to_end"] = e2e
		r.notes["spans"] = len(spans)
	}
	out.Correct = r.failed == 0 && r.attempted > 0
	return out, nil
}

// findBenchDir walks up from the working directory to the bench
// module's root (`go run -C bench` starts there; `go test` starts in
// the package directory).
func findBenchDir() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		buf, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(buf), "module github.com/score-dc/score/bench\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the bench module")
		}
		dir = parent
	}
}

func printResult(out *resultFile) error {
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v  size %s\n", out.Workload, out.Seed, out.Seconds, out.Trace, out.Size)
	for _, n := range names {
		fmt.Printf("  %-38s %16.6f %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	fmt.Printf("  attempted %d  failed %d\n", out.Attempted, out.Failed)
	for _, f := range out.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	line, err := json.Marshal(out.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeResultFile(opt options, out *resultFile) error {
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	name := opt.workload + ".result.json"
	if opt.trace {
		name = opt.workload + ".traced.result.json"
	}
	return os.WriteFile(filepath.Join(opt.outDir, name), append(buf, '\n'), 0o644)
}

func mainErr() error {
	var opt options
	var trace, aa int
	flag.StringVar(&opt.workload, "workload", "", "converge, ingest, react or paper")
	flag.Int64Var(&opt.seed, "seed", defaultSeed, "seed every generated input derives from")
	flag.Float64Var(&opt.seconds, "seconds", refSeconds, "length the timed phase's fixed work is sized to, on the reference host")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.IntVar(&aa, "aa", 0, "run two interleaved sets of N runs per workload (all, or the one -workload names) and report whether they agree")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	opt.trace = trace != 0
	opt.size = refSizes()
	var err error
	if opt.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if opt.benchDir, err = findBenchDir(); err != nil {
		return err
	}
	opt.repoDir = filepath.Dir(opt.benchDir)
	opt.outDir = filepath.Join(opt.benchDir, "out")
	if opt.decl, err = loadDeclared(opt.repoDir); err != nil {
		return err
	}
	if aa > 0 {
		return runAA(opt, aa)
	}
	out, err := execute(opt)
	if err != nil {
		return err
	}
	if err := writeResultFile(opt, out); err != nil {
		return err
	}
	if err := printResult(out); err != nil {
		return err
	}
	if !out.Correct {
		return fmt.Errorf("%d of %d ops failed", out.Failed, out.Attempted)
	}
	return nil
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
