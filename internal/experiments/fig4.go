package experiments

import (
	"fmt"
	"io"

	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/ga"
	"github.com/score-dc/score/internal/migration"
	"github.com/score-dc/score/internal/netsim"
	"github.com/score-dc/score/internal/remedy"
	"github.com/score-dc/score/internal/sim"
	"github.com/score-dc/score/internal/stats"
	"github.com/score-dc/score/internal/token"
	"github.com/score-dc/score/internal/viz"
)

// Fig4Result compares S-CORE against Remedy on the sparse TM (Remedy's
// best case, per its own evaluation): link-utilization CDFs at the core
// and aggregation layers (Fig. 4a) and cost-ratio-over-time (Fig. 4b).
type Fig4Result struct {
	// CDF sample sets: per-link utilizations.
	BaselineCore, BaselineAgg []float64
	RemedyCore, RemedyAgg     []float64
	ScoreCore, ScoreAgg       []float64
	// Cost ratio series (over GA-optimal).
	ScoreRatio  stats.TimeSeries
	RemedyRatio stats.TimeSeries
	// Headline reductions.
	InitialCost                       float64
	GACost                            float64
	ScoreReduction                    float64
	RemedyReduction                   float64
	ScoreMigrations, RemedyMigrations int
}

// Fig4ScoreVsRemedy reproduces Fig. 4 on the canonical tree: the same
// initial allocation is handed to S-CORE (HLF) and to the Remedy
// controller, and both runs are scored on link utilization and overall
// communication cost.
func Fig4ScoreVsRemedy(scale Scale, seed int64) (*Fig4Result, error) {
	base, err := NewScenario(Canonical, scale, Sparse, seed)
	if err != nil {
		return nil, err
	}
	// Calibrate the sparse TM so the baseline allocation drives the hot
	// core links to ~70% utilization — the congestion regime of the
	// paper's Fig. 4a, and the operating point a congestion-triggered
	// controller like Remedy is designed for. The structure (sparsity,
	// hotspots) is unchanged; only the absolute intensity is scaled.
	net := netsim.NewNetwork(base.Topo)
	net.Recompute(base.TM, base.Cl)
	core3 := stats.NewCDF(net.UtilizationAtLevel(3))
	if p90 := core3.Quantile(0.9); p90 > 0 && (p90 < 0.35 || p90 > 1.0) {
		base.TM = base.TM.Scaled(0.7 / p90)
		if _, err := rebuildEngine(base, base.Eng.Config()); err != nil {
			return nil, err
		}
		net.Recompute(base.TM, base.Cl)
	}
	res := &Fig4Result{InitialCost: base.Eng.TotalCost()}
	res.BaselineCore = net.UtilizationAtLevel(3)
	res.BaselineAgg = net.UtilizationAtLevel(2)

	gaRes, err := ga.Optimize(base.Eng, gaConfigFor(scale), base.Rng)
	if err != nil {
		return nil, err
	}
	res.GACost = gaRes.BestCost

	// S-CORE run. The comparison charges S-CORE a non-zero c_m derived
	// from Remedy's migration cost model ("we have used Remedy's
	// migration cost model … and set S-CORE's cm accordingly"): the
	// modeled migrated bytes of a typical VM, expressed in cost units
	// via the level-1 weight over the measurement horizon.
	scoreRun, err := base.CloneForRun()
	if err != nil {
		return nil, err
	}
	simCfg := simConfigFor(scoreRun.Cl.NumVMs(), 8)
	typBytesMB := migration.WorkingSetMeanMB // typical pre-copy payload
	cm := 2 * (typBytesMB * 8 / remedy.HorizonS) * scoreRun.Eng.CostModel().Prefix(1)
	engCfg := scoreRun.Eng.Config()
	engCfg.MigrationCost = cm
	scoreEng, err := rebuildEngine(scoreRun, engCfg)
	if err != nil {
		return nil, err
	}
	runner, err := sim.NewRunner(scoreEng, token.HighestLevelFirst{}, simCfg, scoreRun.Rng)
	if err != nil {
		return nil, err
	}
	sm, err := runner.Run()
	if err != nil {
		return nil, err
	}
	res.ScoreRatio = sm.CostRatioSeries(res.GACost)
	res.ScoreReduction = sm.Reduction()
	res.ScoreMigrations = sm.TotalMigrations
	res.ScoreCore = sm.UtilizationByLevel[3]
	res.ScoreAgg = sm.UtilizationByLevel[2]

	// Remedy run from the same initial allocation.
	remedyRun, err := base.CloneForRun()
	if err != nil {
		return nil, err
	}
	remCfg := sim.DefaultRemedyConfig()
	remCfg.DurationS = simCfg.DurationS
	remCfg.SampleIntervalS = simCfg.SampleIntervalS
	rm, err := sim.RunRemedy(remedyRun.Eng, remCfg, remedyRun.Rng)
	if err != nil {
		return nil, err
	}
	res.RemedyRatio = rm.CostRatioSeries(res.GACost)
	res.RemedyReduction = rm.Reduction()
	res.RemedyMigrations = rm.TotalMigrations
	res.RemedyCore = rm.UtilizationByLevel[3]
	res.RemedyAgg = rm.UtilizationByLevel[2]
	return res, nil
}

// rebuildEngine replaces the scenario's engine with one using a
// modified config (the cluster and traffic matrix stay shared), and
// reassigns sc.Eng so the scenario never holds a stale engine.
func rebuildEngine(sc *Scenario, cfg core.Config) (*core.Engine, error) {
	eng, err := core.NewEngine(sc.Topo, sc.Eng.CostModel(), sc.Cl, sc.TM, cfg)
	if err != nil {
		return nil, err
	}
	sc.Eng = eng
	return eng, nil
}

// Render renders the CDFs and the comparison chart.
func (r *Fig4Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig 4a: link utilization CDFs (median / p90 / max)")
	rows := []struct {
		name string
		data []float64
	}{
		{"core baseline", r.BaselineCore},
		{"core remedy", r.RemedyCore},
		{"core s-core", r.ScoreCore},
		{"agg  baseline", r.BaselineAgg},
		{"agg  remedy", r.RemedyAgg},
		{"agg  s-core", r.ScoreAgg},
	}
	for _, row := range rows {
		c := stats.NewCDF(row.data)
		fmt.Fprintf(w, "  %-14s median=%6.2f%%  p90=%6.2f%%  max=%6.2f%%\n",
			row.name, 100*c.Quantile(0.5), 100*c.Quantile(0.9), 100*c.Quantile(1))
	}
	viz.LineChart(w, "Fig 4b: cost ratio vs GA-optimal, S-CORE vs Remedy", 72, 12,
		viz.Series{Name: "S-CORE", X: r.ScoreRatio.T, Y: r.ScoreRatio.V},
		viz.Series{Name: "Remedy", X: r.RemedyRatio.T, Y: r.RemedyRatio.V},
	)
	fmt.Fprintf(w, "  cost reduction: S-CORE=%.1f%% (%d migrations), Remedy=%.1f%% (%d migrations)\n",
		100*r.ScoreReduction, r.ScoreMigrations, 100*r.RemedyReduction, r.RemedyMigrations)
}
