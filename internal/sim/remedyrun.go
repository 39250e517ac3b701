package sim

import (
	"fmt"
	"math/rand"

	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/netsim"
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
// run so the two plot on the same axes. The engine is used only for cost
// evaluation; decisions are the Remedy controller's.
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
	net := ctrl.Network()
	des := netsim.NewEngine()
	var m Metrics
	m.InitialCost = eng.TotalCost()
	m.Cost.Append(0, m.InitialCost)

	var sample func()
	sample = func() {
		m.Cost.Append(des.Now(), eng.TotalCost())
		if des.Now()+cfg.SampleIntervalS <= cfg.DurationS {
			des.After(cfg.SampleIntervalS, sample)
		}
	}
	des.After(cfg.SampleIntervalS, sample)

	var round func()
	round = func() {
		migs := ctrl.Round()
		m.TotalMigrations += len(migs)
		for _, mg := range migs {
			m.TotalMigratedMB += mg.CostMB
		}
		if des.Now()+remedyRoundS <= cfg.DurationS {
			des.After(remedyRoundS, round)
		}
	}
	des.After(remedyRoundS, round)
	des.RunUntil(cfg.DurationS)

	m.FinalCost = eng.TotalCost()
	net.Sync(eng.Traffic(), eng.Cluster())
	m.UtilizationByLevel = map[int][]float64{
		1: net.UtilizationAtLevel(1),
		2: net.UtilizationAtLevel(2),
		3: net.UtilizationAtLevel(3),
	}
	return &m, nil
}
