package experiments

import (
	"fmt"
	"io"

	"github.com/score-dc/score/internal/sim"
	"github.com/score-dc/score/internal/token"
)

// Fig2Result is the "ratio of migrated VMs in 5 consecutive iterations"
// experiment: S-CORE converges to a stable distribution within two
// token-passing iterations, after which very few VMs migrate.
type Fig2Result struct {
	Iterations int
	// RR and HLF hold the migrated-VM ratio per token pass.
	RR  []float64
	HLF []float64
}

// Fig2MigratedRatio reproduces Fig. 2 on the canonical tree with the
// sparse TM, running both token policies from the same initial
// allocation.
func Fig2MigratedRatio(scale Scale, seed int64) (*Fig2Result, error) {
	const iterations = 5
	base, err := NewScenario(Canonical, scale, Sparse, seed)
	if err != nil {
		return nil, err
	}
	res := &Fig2Result{Iterations: iterations}
	for _, pol := range []token.Policy{token.RoundRobin{}, token.HighestLevelFirst{}} {
		cfg := sim.DefaultConfig()
		cfg.MaxIterations = iterations
		cfg.HopLatencyS = 0.05
		cfg.DurationS = cfg.HopLatencyS*float64(iterations*base.Cl.NumVMs()) + 120
		cfg.SampleIntervalS = cfg.DurationS / 40
		m, err := base.runCell(base.Eng.CostModel(), base.Eng.Config(), pol, cfg)
		if err != nil {
			return nil, err
		}
		ratios := make([]float64, iterations)
		for i := 0; i < iterations && i < len(m.Iterations); i++ {
			ratios[i] = m.Iterations[i].Ratio
		}
		switch pol.(type) {
		case token.RoundRobin:
			res.RR = ratios
		default:
			res.HLF = ratios
		}
	}
	return res, nil
}

// Render renders the result as the paper's bar groups.
func (r *Fig2Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Fig 2: ratio of migrated VMs in 5 consecutive iterations")
	fmt.Fprintln(w, "iter  round-robin  highest-level-first")
	for i := 0; i < r.Iterations; i++ {
		var rr, hlf float64
		if i < len(r.RR) {
			rr = r.RR[i]
		}
		if i < len(r.HLF) {
			hlf = r.HLF[i]
		}
		fmt.Fprintf(w, "%4d  %11.4f  %19.4f\n", i+1, rr, hlf)
	}
}
