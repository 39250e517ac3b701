package experiments

import (
	"fmt"
	"io"

	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/sim"
	"github.com/score-dc/score/internal/token"
)

// AblationRow is one configuration's outcome in an ablation sweep.
type AblationRow struct {
	Label      string
	Reduction  float64 // fractional cost reduction
	Migrations int
	FinalCost  float64
}

// AblationResult is a labeled sweep.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// Render prints the sweep as a table.
func (r *AblationResult) Render(w io.Writer) {
	fmt.Fprintln(w, r.Title)
	fmt.Fprintln(w, "  configuration          reduction  migrations  final-cost")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "  %-22s  %8.1f%%  %10d  %10.0f\n",
			row.Label, 100*row.Reduction, row.Migrations, row.FinalCost)
	}
}

// runOnce executes one S-CORE run on a clone of the scenario with the
// given engine config and policy.
func runOnce(base *Scenario, engCfg core.Config, pol token.Policy) (*sim.Metrics, error) {
	run, err := base.CloneForRun()
	if err != nil {
		return nil, err
	}
	eng, err := rebuildEngine(run, engCfg)
	if err != nil {
		return nil, err
	}
	cfg := simConfigFor(run.Cl.NumVMs(), 8)
	runner, err := sim.NewRunner(eng, pol, cfg, run.Rng)
	if err != nil {
		return nil, err
	}
	return runner.Run()
}

// AblationLinkWeights compares the paper's exponential link weights
// against linear and uniform alternatives (DESIGN.md §8): steeper weight
// growth values core avoidance more aggressively.
func AblationLinkWeights(scale Scale, seed int64) (*AblationResult, error) {
	base, err := NewScenario(Canonical, scale, Sparse, seed)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: "Ablation: link-weight growth (canonical, sparse TM, HLF)"}
	families := []struct {
		label   string
		weights []float64
	}{
		{"exponential (paper)", core.PaperWeights()},
		{"linear [1,2,3]", core.LinearWeights(3)},
		{"uniform [1,1,1]", core.UniformWeights(3)},
	}
	for _, fam := range families {
		cm, err := core.NewCostModel(fam.weights...)
		if err != nil {
			return nil, err
		}
		run, err := base.CloneForRun()
		if err != nil {
			return nil, err
		}
		eng, err := core.NewEngine(run.Topo, cm, run.Cl, run.TM, run.Eng.Config())
		if err != nil {
			return nil, err
		}
		run.Eng = eng
		cfg := simConfigFor(run.Cl.NumVMs(), 8)
		runner, err := sim.NewRunner(eng, token.HighestLevelFirst{}, cfg, run.Rng)
		if err != nil {
			return nil, err
		}
		m, err := runner.Run()
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Label: fam.label, Reduction: m.Reduction(),
			Migrations: m.TotalMigrations, FinalCost: m.FinalCost,
		})
	}
	return res, nil
}

// AblationMigrationCost sweeps c_m (the paper "experimented with
// different cm values" to limit migration churn): higher thresholds
// trade migrations for residual cost.
func AblationMigrationCost(scale Scale, seed int64) (*AblationResult, error) {
	base, err := NewScenario(Canonical, scale, Sparse, seed)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: "Ablation: migration cost c_m (canonical, sparse TM, HLF)"}
	// Express thresholds as fractions of the initial mean per-VM cost so
	// the sweep is scale-free.
	meanVM := base.Eng.TotalCost() / float64(base.Cl.NumVMs())
	for _, frac := range []float64{0, 0.1, 0.5, 1, 2, 5} {
		engCfg := base.Eng.Config()
		engCfg.MigrationCost = frac * meanVM
		m, err := runOnce(base, engCfg, token.HighestLevelFirst{})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Label:      fmt.Sprintf("cm = %.1f x meanVMcost", frac),
			Reduction:  m.Reduction(),
			Migrations: m.TotalMigrations,
			FinalCost:  m.FinalCost,
		})
	}
	return res, nil
}

// AblationTokenPolicies compares all four policies, including the
// adversarial LowestLevelFirst, quantifying HLF's prioritization value.
func AblationTokenPolicies(scale Scale, seed int64) (*AblationResult, error) {
	base, err := NewScenario(Canonical, scale, Sparse, seed)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: "Ablation: token policies (canonical, sparse TM)"}
	policies := []token.Policy{
		token.HighestLevelFirst{},
		token.RoundRobin{},
		token.LowestLevelFirst{},
		&token.Random{Rng: base.Rng},
	}
	for _, pol := range policies {
		m, err := runOnce(base, base.Eng.Config(), pol)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Label: pol.Name(), Reduction: m.Reduction(),
			Migrations: m.TotalMigrations, FinalCost: m.FinalCost,
		})
	}
	return res, nil
}
