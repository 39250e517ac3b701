package sim

// This file runs the Remedy baseline as a Runner plane: the controller's
// polling round is the plane's one event, on Runner.run's clock next to
// the run's cost-sampling tick, and the run starts and finishes as the
// serial token run does.

import (
	"fmt"
	"math/rand"

	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/remedy"
)

// remedyRoundS is the Remedy controller's polling period.
const remedyRoundS = 15

// RemedyConfig tunes a simulated Remedy run for the Fig. 4 comparison.
type RemedyConfig struct {
	// DurationS is the simulated run length.
	DurationS float64
	// SampleIntervalS is the cost-sampling tick.
	SampleIntervalS float64
}

// DefaultRemedyConfig mirrors the paper's comparison setup.
func DefaultRemedyConfig() RemedyConfig {
	return RemedyConfig{DurationS: 800, SampleIntervalS: 5}
}

// RunRemedy executes the centralized Remedy control loop over the
// engine's cluster and traffic, returning metrics shaped like a S-CORE
// run so the two plot on the same axes. It is a Runner plane: it starts,
// samples and finishes as the serial run does, with the controller's own
// routed network read for the final link utilizations. The engine is
// used only for cost evaluation; decisions are the Remedy controller's.
func RunRemedy(eng *core.Engine, cfg RemedyConfig, rng *rand.Rand) (*Metrics, error) {
	if eng == nil || rng == nil {
		return nil, fmt.Errorf("sim: nil dependency")
	}
	if cfg.DurationS <= 0 || cfg.SampleIntervalS <= 0 {
		return nil, fmt.Errorf("sim: durations must be positive")
	}
	ctrl, err := remedy.NewController(eng.Topology(), eng.Cluster(), eng.Traffic(), rng)
	if err != nil {
		return nil, err
	}
	r := newRunner(eng, Config{DurationS: cfg.DurationS, SampleIntervalS: cfg.SampleIntervalS}, rng, ctrl.Network())
	r.begin()
	r.run(remedyRoundS, func() (float64, bool) {
		migs := ctrl.Round()
		r.metrics.TotalMigrations += len(migs)
		for _, mg := range migs {
			r.metrics.TotalMigratedMB += mg.CostMB
		}
		return remedyRoundS, true
	})
	return r.finish(), nil
}
