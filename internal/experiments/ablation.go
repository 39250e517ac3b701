package experiments

import (
	"fmt"
	"io"

	"github.com/score-dc/score/internal/core"
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

// add runs one configuration from base's allocation under Fig. 3's run
// shape and appends its row.
func (r *AblationResult) add(base *Scenario, label string, cost core.CostModel, engCfg core.Config, pol token.Policy) error {
	m, err := base.runCell(cost, engCfg, pol, simConfigFor(base.Cl.NumVMs(), 8))
	if err != nil {
		return err
	}
	r.Rows = append(r.Rows, AblationRow{Label: label, Reduction: m.Reduction(), Migrations: m.TotalMigrations, FinalCost: m.FinalCost})
	return nil
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
		if err := res.add(base, fam.label, cm, base.Eng.Config(), token.HighestLevelFirst{}); err != nil {
			return nil, err
		}
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
		label := fmt.Sprintf("cm = %.1f x meanVMcost", frac)
		if err := res.add(base, label, base.Eng.CostModel(), engCfg, token.HighestLevelFirst{}); err != nil {
			return nil, err
		}
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
		if err := res.add(base, pol.Name(), base.Eng.CostModel(), base.Eng.Config(), pol); err != nil {
			return nil, err
		}
	}
	return res, nil
}
