// Command scorebench regenerates every table and figure of the paper's
// evaluation (Section VI) and writes both human-readable output and CSV
// series.
//
// Usage:
//
//	scorebench [-scale small|medium|paper] [-seed N] [-out DIR] [-only fig2,fig3,...]
//	           [-maxflows N] [-shards N] [-distributed-shards N] [-dist-loss P]
//	           [-metrics-addr HOST:PORT]
//
// The table sections declares each section once: its -only key, its
// place in the run order and the flag setting it needs. dist needs
// -distributed-shards above 0: a full run skips it without one, and -only
// dist then fails, as does an -only key that names no section.
//
// The testbed-model experiments of Section VI-C (Fig. 5: flow-table
// stress, live-migration bytes/time/downtime under background load) are
// the subset -only fig5a,fig5b,fig5cd.
//
// The sharded sweeps (shards, dist, autotune) double the shard count from
// 2 up to -shards (-distributed-shards for dist) and write one CSV line
// per run. The shard sweep runs the single token under hlf and rr as its
// baselines and each shard count once: sharded rounds walk their rings in
// ID order, so the policy axis ends at shards = 1.
//
// With -metrics-addr the process serves Go runtime metrics at /metrics
// and net/http/pprof at /debug/pprof/ while the figures generate — the
// profiling surface for long sweeps.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"github.com/score-dc/score/internal/experiments"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/stats"
	"github.com/score-dc/score/internal/viz"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scorebench:", err)
		os.Exit(1)
	}
}

// bench is what every section reads: the flags and the output stream.
type bench struct {
	w                               io.Writer
	scale                           experiments.Scale
	seed                            int64
	out                             string
	maxFlows, maxShards, distShards int
	distLoss                        float64
}

// section is one key -only selects. A section with ready runs only when
// ready holds, which need describes: -only naming it fails otherwise,
// and a full run skips it.
type section struct {
	key   string
	run   func(*bench) error
	ready func(*bench) bool
	need  string
}

// sections lists every section in the order they run.
var sections = []section{
	{key: "fig2", run: (*bench).fig2},
	{key: "fig3tm", run: (*bench).fig3tm},
	{key: "fig3", run: (*bench).fig3},
	{key: "fig4", run: (*bench).fig4},
	{key: "fig5a", run: (*bench).fig5a},
	{key: "fig5b", run: (*bench).fig5b},
	{key: "ablations", run: (*bench).ablations},
	{key: "shards", run: (*bench).shards},
	{key: "dist", run: (*bench).dist, ready: func(b *bench) bool { return b.distShards > 0 }, need: "-distributed-shards above 0"},
	{key: "autotune", run: (*bench).autotune},
	{key: "fig5cd", run: (*bench).fig5cd},
}

func run() error {
	keys := make([]string, len(sections))
	for i, s := range sections {
		keys[i] = s.key
	}
	b := &bench{w: os.Stdout}
	scaleFlag := flag.String("scale", "medium", "instance scale: small, medium, or paper")
	flag.Int64Var(&b.seed, "seed", 20140630, "deterministic seed")
	flag.StringVar(&b.out, "out", "results", "directory for CSV output (empty disables)")
	only := flag.String("only", "", "comma-separated subset: "+strings.Join(keys, ","))
	flag.IntVar(&b.maxFlows, "maxflows", 1000000, "flow-table sweep upper bound for fig5a")
	flag.IntVar(&b.maxShards, "shards", 8, "largest shard count in the shard sweep (doubling from 2)")
	flag.IntVar(&b.distShards, "distributed-shards", 0, "largest ring count in the distributed agent-plane sweep (>0 enables the dist section)")
	flag.Float64Var(&b.distLoss, "dist-loss", 0, "distributed sweep: per-hop shard-token drop probability (exercises reconciler ring regeneration)")
	metricsAddr := flag.String("metrics-addr", "", "serve runtime /metrics and /debug/pprof/ on this address while figures generate (e.g. :9090)")
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			k = strings.TrimSpace(k)
			if !slices.Contains(keys, k) {
				return fmt.Errorf("unknown -only key %q (valid: %s)", k, strings.Join(keys, ","))
			}
			want[k] = true
		}
	}
	var todo []section
	for _, s := range sections {
		if len(want) > 0 && !want[s.key] {
			continue
		}
		if s.ready != nil && !s.ready(b) {
			if want[s.key] {
				return fmt.Errorf("-only %s needs %s", s.key, s.need)
			}
			continue
		}
		todo = append(todo, s)
	}

	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		obs.RegisterRuntime(reg)
		srv, err := obs.Serve(*metricsAddr, obs.Handler(reg, nil, nil))
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("observability: http://%s/metrics (pprof at /debug/pprof/)\n", srv.Addr())
	}

	for _, sc := range []experiments.Scale{experiments.ScaleSmall, experiments.ScaleMedium, experiments.ScalePaper} {
		if sc.String() == *scaleFlag {
			b.scale = sc
		}
	}
	if b.scale == 0 {
		return fmt.Errorf("unknown scale %q", *scaleFlag)
	}

	if b.out != "" {
		if err := os.MkdirAll(b.out, 0o755); err != nil {
			return err
		}
	}
	for _, s := range todo {
		if err := s.run(b); err != nil {
			return fmt.Errorf("%s: %w", s.key, err)
		}
	}
	return nil
}

func (b *bench) fig2() error {
	fmt.Fprintf(b.w, "== Fig 2 (scale=%s seed=%d) ==\n", b.scale, b.seed)
	res, err := experiments.Fig2MigratedRatio(b.scale, b.seed)
	if err != nil {
		return err
	}
	res.Render(b.w)
	iters := make([]float64, res.Iterations)
	for i := range iters {
		iters[i] = float64(i + 1)
	}
	return b.writeCSV("fig2_migrated_ratio.csv", []string{"iteration", "rr", "hlf"}, iters, res.RR, res.HLF)
}

func (b *bench) fig3tm() error {
	fmt.Fprintf(b.w, "\n== Fig 3a-c (scale=%s) ==\n", b.scale)
	res, err := experiments.Fig3TrafficMatrices(b.scale, b.seed)
	if err != nil {
		return err
	}
	res.Render(b.w)
	return b.write("fig3a_tor_matrix.csv", func(w io.Writer) error {
		for _, line := range res.SparseTor {
			cells := make([]string, len(line))
			for j, v := range line {
				cells[j] = fmt.Sprintf("%g", v)
			}
			if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
				return err
			}
		}
		return nil
	})
}

func (b *bench) fig3() error {
	for _, family := range []experiments.Family{experiments.Canonical, experiments.FatTree} {
		for _, density := range []experiments.Density{experiments.Sparse, experiments.Medium, experiments.Dense} {
			fmt.Fprintf(b.w, "\n== Fig 3 curves: %s / %s ==\n", family, density)
			res, err := experiments.Fig3CostRatio(family, density, b.scale, b.seed)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", family, density, err)
			}
			res.Render(b.w)
			if err := b.writeCSV(fmt.Sprintf("fig3_%s_%s.csv", family, density),
				[]string{"time_s", "hlf_ratio", "rr_time_s", "rr_ratio"},
				res.HLF.T, res.HLF.V, res.RR.T, res.RR.V); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *bench) fig4() error {
	fmt.Fprintf(b.w, "\n== Fig 4: S-CORE vs Remedy ==\n")
	res, err := experiments.Fig4ScoreVsRemedy(b.scale, b.seed)
	if err != nil {
		return err
	}
	res.Render(b.w)
	if err := b.writeCDFCSV("fig4a_core_cdf.csv", res.BaselineCore, res.RemedyCore, res.ScoreCore); err != nil {
		return err
	}
	if err := b.writeCDFCSV("fig4a_agg_cdf.csv", res.BaselineAgg, res.RemedyAgg, res.ScoreAgg); err != nil {
		return err
	}
	return b.writeCSV("fig4b_cost_ratio.csv",
		[]string{"time_s", "score_ratio", "remedy_time_s", "remedy_ratio"},
		res.ScoreRatio.T, res.ScoreRatio.V, res.RemedyRatio.T, res.RemedyRatio.V)
}

func (b *bench) fig5a() error {
	fmt.Fprintf(b.w, "\n== Fig 5a: flow table stress (up to %d flows) ==\n", b.maxFlows)
	res := experiments.Fig5aFlowTable(b.maxFlows)
	res.Render(b.w)
	sizes := make([]float64, len(res.Sizes))
	for i, n := range res.Sizes {
		sizes[i] = float64(n)
	}
	return b.writeCSV("fig5a_flowtable.csv",
		[]string{"flows", "add_t1", "lookup_t1", "delete_t1", "add_t2", "lookup_t2", "delete_t2"},
		sizes, res.AddType1, res.LookupType1, res.DeleteType1,
		res.AddType2, res.LookupType2, res.DeleteType2)
}

func (b *bench) fig5b() error {
	fmt.Fprintf(b.w, "\n== Fig 5b: migrated bytes distribution ==\n")
	res := experiments.Fig5bMigratedBytes(200, b.seed)
	res.Render(b.w)
	return b.writeCSV("fig5b_migrated_bytes.csv", []string{"migrated_mb"}, res.Samples)
}

func (b *bench) ablations() error {
	fmt.Fprintf(b.w, "\n== Ablations (DESIGN.md §8) ==\n")
	for _, ablate := range []func(experiments.Scale, int64) (*experiments.AblationResult, error){
		experiments.AblationLinkWeights, experiments.AblationMigrationCost, experiments.AblationTokenPolicies,
	} {
		res, err := ablate(b.scale, b.seed)
		if err != nil {
			return err
		}
		res.Render(b.w)
	}
	return nil
}

func (b *bench) shards() error {
	fmt.Fprintf(b.w, "\n== Shard sweep: sharded token scheduler vs single token ==\n")
	res, err := experiments.ShardSweep(experiments.FatTree, experiments.Dense, b.scale, b.seed,
		doubling(b.maxShards), []string{"hlf", "rr"})
	if err != nil {
		return err
	}
	res.Render(b.w)
	return b.writeRowsCSV("shard_sweep.csv", res.Rows, "shards", "reduction", "critical_hops", "baseline_hlf", "baseline_rr")
}

func (b *bench) dist() error {
	fmt.Fprintf(b.w, "\n== Distributed agent-plane sweep: sharded dom0 rings + reconciler ==\n")
	res, err := experiments.DistributedSweep(experiments.FatTree, experiments.Dense, b.scale, b.seed,
		doubling(b.distShards), b.distLoss)
	if err != nil {
		return err
	}
	res.Render(b.w)
	return b.writeRowsCSV("distributed_sweep.csv", res.Rows, "shards", "reduction", "cross_proposed",
		"cross_applied", "ring_latency_ms", "tokens_reinjected", "recovered_rings")
}

func (b *bench) autotune() error {
	fmt.Fprintf(b.w, "\n== Auto-tuning sweep: adaptive control plane vs fixed shard counts ==\n")
	res, err := experiments.AutoTuneSweep(experiments.FatTree, b.scale, b.seed, doubling(b.maxShards))
	if err != nil {
		return err
	}
	res.Render(b.w)
	return b.writeRowsCSV("autotune_sweep.csv", res.Rows, "workload_crosspod", "fixed_shards_0_auto",
		"chosen_shards", "reduction", "rounds", "cross_proposed")
}

func (b *bench) fig5cd() error {
	fmt.Fprintf(b.w, "\n== Fig 5c/5d: migration time and downtime vs load ==\n")
	res := experiments.Fig5cdMigrationSweep(100, b.seed)
	res.Render(b.w)
	return b.writeCSV("fig5cd_migration_sweep.csv",
		[]string{"load", "time_mean_s", "time_std_s", "down_mean_ms", "down_std_ms"},
		res.Loads, res.TimeMean, res.TimeStd, res.DownMean, res.DownStd)
}

// doubling lists the shard counts 2, 4, … up to top; the sweeps add the
// single-token baseline themselves.
func doubling(top int) []int {
	var counts []int
	for n := 2; n <= top; n *= 2 {
		counts = append(counts, n)
	}
	return counts
}

// row is one sweep run, as the sweep CSVs read it.
type row = experiments.SweepRow

// columns are the sweeps' CSV columns by name; a column baseline_<policy>
// marks that policy's single-token baseline with 1.
var columns = map[string]func(row) float64{
	"shards":              func(r row) float64 { return float64(r.Shards) },
	"fixed_shards_0_auto": func(r row) float64 { return float64(r.Shards) },
	"workload_crosspod":   func(r row) float64 { return one(r.Workload == experiments.CrossPod) },
	"chosen_shards":       func(r row) float64 { return float64(r.Effective) },
	"reduction":           func(r row) float64 { return r.Reduction },
	"rounds":              func(r row) float64 { return float64(r.Rounds) },
	"critical_hops":       func(r row) float64 { return float64(r.CriticalHops) },
	"cross_proposed":      func(r row) float64 { return float64(r.CrossProposed) },
	"cross_applied":       func(r row) float64 { return float64(r.CrossApplied) },
	"ring_latency_ms":     func(r row) float64 { return r.RingLatencyMS },
	"tokens_reinjected":   func(r row) float64 { return float64(r.Regenerated) },
	"recovered_rings":     func(r row) float64 { return float64(r.Recovered) },
}

// one is a flag column's value: 1 when ok holds, 0 otherwise.
func one(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// writeRowsCSV writes one line per row, one value per named column.
func (b *bench) writeRowsCSV(name string, rows []row, names ...string) error {
	vals := make([][]float64, len(names))
	for i, n := range names {
		of := columns[n]
		if pol, ok := strings.CutPrefix(n, "baseline_"); ok {
			of = func(r row) float64 { return one(r.Policy == pol) }
		}
		for _, r := range rows {
			vals[i] = append(vals[i], of(r))
		}
	}
	return b.writeCSV(name, names, vals...)
}

// write creates the named file under -out and fills it; it writes
// nothing when -out is empty.
func (b *bench) write(name string, fill func(io.Writer) error) error {
	if b.out == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(b.out, name))
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (b *bench) writeCSV(name string, headers []string, cols ...[]float64) error {
	return b.write(name, func(w io.Writer) error { return viz.WriteCSV(w, headers, cols...) })
}

// writeCDFCSV writes the CDFs of the baseline, Remedy and S-CORE
// utilizations at 100 points each.
func (b *bench) writeCDFCSV(name string, baseline, remedy, score []float64) error {
	var headers []string
	var cols [][]float64
	series := [][]float64{baseline, remedy, score}
	for i, key := range []string{"baseline", "remedy", "score"} {
		xs, ps := stats.NewCDF(series[i]).Points(100)
		headers = append(headers, key+"_util", key+"_p")
		cols = append(cols, xs, ps)
	}
	return b.writeCSV(name, headers, cols...)
}
