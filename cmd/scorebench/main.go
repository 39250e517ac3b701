// Command scorebench regenerates every table and figure of the paper's
// evaluation (Section VI) and writes both human-readable output and CSV
// series.
//
// Usage:
//
//	scorebench [-scale small|medium|paper] [-seed N] [-out DIR] [-only fig2,fig3,...]
//	           [-shards N] [-metrics-addr HOST:PORT]
//
// The testbed-model experiments of Section VI-C (Fig. 5: flow-table
// stress, live-migration bytes/time/downtime under background load) are
// the subset -only fig5a,fig5b,fig5cd.
//
// The shard sweep (-only shards) runs the single token under hlf and rr
// as its baselines and each shard count once: sharded rounds walk their
// rings in ID order, so the policy axis ends at shards = 1.
//
// With -metrics-addr the process serves Go runtime metrics at /metrics
// and net/http/pprof at /debug/pprof/ while the figures generate — the
// profiling surface for long sweeps.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
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

func run() error {
	scaleFlag := flag.String("scale", "medium", "instance scale: small, medium, or paper")
	seed := flag.Int64("seed", 20140630, "deterministic seed")
	outDir := flag.String("out", "results", "directory for CSV output (empty disables)")
	only := flag.String("only", "", "comma-separated subset: fig2,fig3tm,fig3,fig4,fig5a,fig5b,fig5cd,ablations,shards,dist,autotune")
	maxFlows := flag.Int("maxflows", 1000000, "flow-table sweep upper bound for fig5a")
	maxShards := flag.Int("shards", 8, "largest shard count in the shard sweep (doubling from 2)")
	distShards := flag.Int("distributed-shards", 0, "largest ring count in the distributed agent-plane sweep (>0 enables the dist section)")
	distLoss := flag.Float64("dist-loss", 0, "distributed sweep: per-hop shard-token drop probability (exercises reconciler ring regeneration)")
	metricsAddr := flag.String("metrics-addr", "", "serve runtime /metrics and /debug/pprof/ on this address while figures generate (e.g. :9090)")
	flag.Parse()

	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		obs.RegisterRuntime(reg)
		srv, err := obs.Serve(*metricsAddr, reg, nil, nil)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("observability: http://%s/metrics (pprof at /debug/pprof/)\n", srv.Addr())
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "small":
		scale = experiments.ScaleSmall
	case "medium":
		scale = experiments.ScaleMedium
	case "paper":
		scale = experiments.ScalePaper
	default:
		return fmt.Errorf("unknown scale %q", *scaleFlag)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	enabled := func(k string) bool { return len(want) == 0 || want[k] }

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	w := os.Stdout

	if enabled("fig2") {
		fmt.Fprintf(w, "== Fig 2 (scale=%s seed=%d) ==\n", scale, *seed)
		res, err := experiments.Fig2MigratedRatio(scale, *seed)
		if err != nil {
			return fmt.Errorf("fig2: %w", err)
		}
		res.Render(w)
		if *outDir != "" {
			iters := make([]float64, res.Iterations)
			for i := range iters {
				iters[i] = float64(i + 1)
			}
			if err := writeCSV(*outDir, "fig2_migrated_ratio.csv",
				[]string{"iteration", "rr", "hlf"}, iters, res.RR, res.HLF); err != nil {
				return err
			}
		}
	}

	if enabled("fig3tm") {
		fmt.Fprintf(w, "\n== Fig 3a-c (scale=%s) ==\n", scale)
		res, err := experiments.Fig3TrafficMatrices(scale, *seed)
		if err != nil {
			return fmt.Errorf("fig3tm: %w", err)
		}
		res.Render(w)
		if *outDir != "" {
			if err := writeMatrixCSV(*outDir, "fig3a_tor_matrix.csv", res.SparseTor); err != nil {
				return err
			}
		}
	}

	if enabled("fig3") {
		for _, family := range []experiments.Family{experiments.Canonical, experiments.FatTree} {
			for _, density := range []experiments.Density{experiments.Sparse, experiments.Medium, experiments.Dense} {
				fmt.Fprintf(w, "\n== Fig 3 curves: %s / %s ==\n", family, density)
				res, err := experiments.Fig3CostRatio(family, density, scale, *seed)
				if err != nil {
					return fmt.Errorf("fig3 %s/%s: %w", family, density, err)
				}
				res.Render(w)
				if *outDir != "" {
					name := fmt.Sprintf("fig3_%s_%s.csv", family, density)
					if err := writeCSV(*outDir, name,
						[]string{"time_s", "hlf_ratio", "rr_time_s", "rr_ratio"},
						res.HLF.T, res.HLF.V, res.RR.T, res.RR.V); err != nil {
						return err
					}
				}
			}
		}
	}

	if enabled("fig4") {
		fmt.Fprintf(w, "\n== Fig 4: S-CORE vs Remedy ==\n")
		res, err := experiments.Fig4ScoreVsRemedy(scale, *seed)
		if err != nil {
			return fmt.Errorf("fig4: %w", err)
		}
		res.Render(w)
		if *outDir != "" {
			if err := writeCDFCSV(*outDir, "fig4a_core_cdf.csv", map[string][]float64{
				"baseline": res.BaselineCore, "remedy": res.RemedyCore, "score": res.ScoreCore,
			}); err != nil {
				return err
			}
			if err := writeCDFCSV(*outDir, "fig4a_agg_cdf.csv", map[string][]float64{
				"baseline": res.BaselineAgg, "remedy": res.RemedyAgg, "score": res.ScoreAgg,
			}); err != nil {
				return err
			}
			if err := writeCSV(*outDir, "fig4b_cost_ratio.csv",
				[]string{"time_s", "score_ratio", "remedy_time_s", "remedy_ratio"},
				res.ScoreRatio.T, res.ScoreRatio.V, res.RemedyRatio.T, res.RemedyRatio.V); err != nil {
				return err
			}
		}
	}

	if enabled("fig5a") {
		fmt.Fprintf(w, "\n== Fig 5a: flow table stress (up to %d flows) ==\n", *maxFlows)
		res := experiments.Fig5aFlowTable(*maxFlows)
		res.Render(w)
		if *outDir != "" {
			sizes := make([]float64, len(res.Sizes))
			for i, n := range res.Sizes {
				sizes[i] = float64(n)
			}
			if err := writeCSV(*outDir, "fig5a_flowtable.csv",
				[]string{"flows", "add_t1", "lookup_t1", "delete_t1", "add_t2", "lookup_t2", "delete_t2"},
				sizes, res.AddType1, res.LookupType1, res.DeleteType1,
				res.AddType2, res.LookupType2, res.DeleteType2); err != nil {
				return err
			}
		}
	}

	if enabled("fig5b") {
		fmt.Fprintf(w, "\n== Fig 5b: migrated bytes distribution ==\n")
		res := experiments.Fig5bMigratedBytes(200, *seed)
		res.Render(w)
		if *outDir != "" {
			if err := writeCSV(*outDir, "fig5b_migrated_bytes.csv",
				[]string{"migrated_mb"}, res.Samples); err != nil {
				return err
			}
		}
	}

	if enabled("ablations") {
		fmt.Fprintf(w, "\n== Ablations (DESIGN.md §8) ==\n")
		aw, err := experiments.AblationLinkWeights(scale, *seed)
		if err != nil {
			return fmt.Errorf("ablation weights: %w", err)
		}
		aw.Render(w)
		ac, err := experiments.AblationMigrationCost(scale, *seed)
		if err != nil {
			return fmt.Errorf("ablation cm: %w", err)
		}
		ac.Render(w)
		ap, err := experiments.AblationTokenPolicies(scale, *seed)
		if err != nil {
			return fmt.Errorf("ablation policies: %w", err)
		}
		ap.Render(w)
	}

	if enabled("shards") {
		fmt.Fprintf(w, "\n== Shard sweep: sharded token scheduler vs single token ==\n")
		var counts []int
		for n := 2; n <= *maxShards; n *= 2 {
			counts = append(counts, n)
		}
		res, err := experiments.ShardSweep(experiments.FatTree, experiments.Dense, scale, *seed,
			counts, []string{"hlf", "rr"})
		if err != nil {
			return fmt.Errorf("shards: %w", err)
		}
		res.Render(w)
		if *outDir != "" {
			// One row per run, baselines first; a 0/1 column per policy
			// marks its single-token baseline.
			rows := append(append([]experiments.ShardSweepRow(nil), res.Baseline...), res.Sharded...)
			headers := []string{"shards", "reduction", "critical_hops"}
			cols := [][]float64{make([]float64, len(rows)), make([]float64, len(rows)), make([]float64, len(rows))}
			for i, row := range rows {
				cols[0][i], cols[1][i], cols[2][i] = float64(row.Shards), row.Reduction, float64(row.CriticalHops)
			}
			for pi, pol := range res.Policies {
				mark := make([]float64, len(rows))
				mark[pi] = 1
				headers = append(headers, "baseline_"+pol)
				cols = append(cols, mark)
			}
			if err := writeCSV(*outDir, "shard_sweep.csv", headers, cols...); err != nil {
				return err
			}
		}
	}

	if enabled("dist") && *distShards > 0 {
		fmt.Fprintf(w, "\n== Distributed agent-plane sweep: sharded dom0 rings + reconciler ==\n")
		counts := []int{1}
		for n := 2; n <= *distShards; n *= 2 {
			counts = append(counts, n)
		}
		res, err := experiments.DistributedSweep(experiments.FatTree, experiments.Dense, scale, *seed, counts, *distLoss)
		if err != nil {
			return fmt.Errorf("dist: %w", err)
		}
		res.Render(w)
		if *outDir != "" {
			shardCol := make([]float64, len(res.Counts))
			reds := make([]float64, len(res.Counts))
			proposed := make([]float64, len(res.Counts))
			applied := make([]float64, len(res.Counts))
			lat := make([]float64, len(res.Counts))
			regen := make([]float64, len(res.Counts))
			recov := make([]float64, len(res.Counts))
			for i, n := range res.Counts {
				shardCol[i] = float64(n)
				reds[i] = res.Reduction[i]
				proposed[i] = float64(res.CrossProposed[i])
				applied[i] = float64(res.CrossApplied[i])
				lat[i] = res.RingLatencyMS[i]
				regen[i] = float64(res.Regenerated[i])
				recov[i] = float64(res.Recovered[i])
			}
			if err := writeCSV(*outDir, "distributed_sweep.csv",
				[]string{"shards", "reduction", "cross_proposed", "cross_applied", "ring_latency_ms", "tokens_reinjected", "recovered_rings"},
				shardCol, reds, proposed, applied, lat, regen, recov); err != nil {
				return err
			}
		}
	}

	if enabled("autotune") {
		fmt.Fprintf(w, "\n== Auto-tuning sweep: adaptive control plane vs fixed shard counts ==\n")
		counts := []int{1}
		for n := 2; n <= *maxShards; n *= 2 {
			counts = append(counts, n)
		}
		res, err := experiments.AutoTuneSweep(experiments.FatTree, scale, *seed, counts)
		if err != nil {
			return fmt.Errorf("autotune: %w", err)
		}
		res.Render(w)
		if *outDir != "" {
			var workload, mode, chosen, reduction, rounds, cross []float64
			for _, run := range res.Runs {
				wl := 0.0
				if run.Workload == experiments.CrossPod {
					wl = 1
				}
				m := float64(run.Shards)
				if run.Auto {
					m = 0 // auto rows carry 0 in the mode column
				}
				workload = append(workload, wl)
				mode = append(mode, m)
				chosen = append(chosen, float64(run.FinalShards()))
				reduction = append(reduction, run.Reduction)
				rounds = append(rounds, float64(run.Rounds))
				cross = append(cross, float64(run.CrossProposed))
			}
			if err := writeCSV(*outDir, "autotune_sweep.csv",
				[]string{"workload_crosspod", "fixed_shards_0_auto", "chosen_shards", "reduction", "rounds", "cross_proposed"},
				workload, mode, chosen, reduction, rounds, cross); err != nil {
				return err
			}
			if err := writeCSV(*outDir, "autotune_deadline.csv",
				[]string{"adaptive", "regenerations", "spurious", "false_pos_rate", "reduction"},
				[]float64{0, 1},
				[]float64{float64(res.FixedRegens), float64(res.AdaptiveRegens)},
				[]float64{float64(res.FixedSpurious), float64(res.AdaptiveSpurious)},
				[]float64{
					experiments.FalsePositiveRate(res.FixedSpurious, res.FixedRegens),
					experiments.FalsePositiveRate(res.AdaptiveSpurious, res.AdaptiveRegens),
				},
				[]float64{res.FixedReduction, res.AdaptiveReduction}); err != nil {
				return err
			}
		}
	}

	if enabled("fig5cd") {
		fmt.Fprintf(w, "\n== Fig 5c/5d: migration time and downtime vs load ==\n")
		res := experiments.Fig5cdMigrationSweep(100, *seed)
		res.Render(w)
		if *outDir != "" {
			if err := writeCSV(*outDir, "fig5cd_migration_sweep.csv",
				[]string{"load", "time_mean_s", "time_std_s", "down_mean_ms", "down_std_ms"},
				res.Loads, res.TimeMean, res.TimeStd, res.DownMean, res.DownStd); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeCSV(dir, name string, headers []string, cols ...[]float64) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return viz.WriteCSV(f, headers, cols...)
}

func writeMatrixCSV(dir, name string, m [][]float64) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	for _, row := range m {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = fmt.Sprintf("%g", v)
		}
		if _, err := fmt.Fprintln(f, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

func writeCDFCSV(dir, name string, series map[string][]float64) error {
	headers := make([]string, 0, 2*len(series))
	cols := make([][]float64, 0, 2*len(series))
	for _, key := range sortedKeys(series) {
		c := stats.NewCDF(series[key])
		xs, ps := c.Points(100)
		headers = append(headers, key+"_util", key+"_p")
		cols = append(cols, xs, ps)
	}
	return writeCSV(dir, name, headers, cols...)
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	return keys
}
