package experiments

import (
	"fmt"
	"io"

	"github.com/score-dc/score/internal/ga"
	"github.com/score-dc/score/internal/sim"
	"github.com/score-dc/score/internal/stats"
	"github.com/score-dc/score/internal/token"
	"github.com/score-dc/score/internal/traffic"
	"github.com/score-dc/score/internal/viz"
)

// gaConfigFor sizes the GA budget by scale.
func gaConfigFor(scale Scale) ga.Config {
	cfg := ga.DefaultConfig()
	switch scale {
	case ScaleSmall:
		cfg.Population = 60
		cfg.MaxGenerations = 80
	case ScaleMedium:
		cfg.Population = 120
		cfg.MaxGenerations = 150
	case ScalePaper:
		cfg = ga.PaperConfig()
	}
	return cfg
}

// simConfigFor spreads targetIters token passes over the paper's ~700 s
// observation window.
func simConfigFor(numVMs int, targetIters int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.DurationS = 700
	cfg.HopLatencyS = cfg.DurationS / float64(targetIters*numVMs)
	cfg.SampleIntervalS = cfg.DurationS / 140
	return cfg
}

// Fig3TMResult carries the ToR-level traffic matrices of Fig. 3a–c.
type Fig3TMResult struct {
	Racks            int
	SparseTor        [][]float64
	MediumTor        [][]float64
	DenseTor         [][]float64
	SparsePairs      int
	NonZeroCellsFrac float64
}

// Fig3TrafficMatrices reproduces Fig. 3a–c: the sparse hotspot ToR
// matrix and its ×10 / ×50 scalings, under the initial allocation.
func Fig3TrafficMatrices(scale Scale, seed int64) (*Fig3TMResult, error) {
	sc, err := NewScenario(Canonical, scale, Sparse, seed)
	if err != nil {
		return nil, err
	}
	res := &Fig3TMResult{Racks: sc.Topo.Racks(), SparsePairs: sc.TM.NumPairs()}
	res.SparseTor = traffic.TorMatrix(sc.TM, sc.Topo, sc.Cl)
	res.MediumTor = traffic.TorMatrix(sc.TM.Scaled(10), sc.Topo, sc.Cl)
	res.DenseTor = traffic.TorMatrix(sc.TM.Scaled(50), sc.Topo, sc.Cl)
	nz, total := 0, 0
	for i := range res.SparseTor {
		for j := range res.SparseTor[i] {
			total++
			if res.SparseTor[i][j] > 0 {
				nz++
			}
		}
	}
	res.NonZeroCellsFrac = float64(nz) / float64(total)
	return res, nil
}

// Render renders the three heatmaps.
func (r *Fig3TMResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig 3a-c: ToR traffic matrices (%d racks, %d VM pairs, %.1f%% non-zero rack cells)\n",
		r.Racks, r.SparsePairs, 100*r.NonZeroCellsFrac)
	viz.Heatmap(w, "Fig 3a: sparse TM", r.SparseTor)
	viz.Heatmap(w, "Fig 3b: medium TM (x10)", r.MediumTor)
	viz.Heatmap(w, "Fig 3c: dense TM (x50)", r.DenseTor)
}

// Fig3CurveResult is one panel of Fig. 3d–i: communication-cost ratio
// (current cost over GA-optimal) against time for both token policies.
type Fig3CurveResult struct {
	Family  Family
	Density Density
	// Time axis (seconds) and ratio series.
	HLF stats.TimeSeries
	RR  stats.TimeSeries
	// Reference points.
	InitialCost float64
	GACost      float64
	FinalHLF    float64
	FinalRR     float64
	// GAGenerations is how long the centralized baseline needed.
	GAGenerations int
}

// ProximityHLF returns the fraction of the possible (GA-approximated)
// cost reduction S-CORE/HLF achieved — the paper's headline "72%–87% of
// the GA-optimal".
func (r *Fig3CurveResult) ProximityHLF() float64 { return r.proximity(r.FinalHLF) }

// ProximityRR is ProximityHLF for the Round-Robin run.
func (r *Fig3CurveResult) ProximityRR() float64 { return r.proximity(r.FinalRR) }

func (r *Fig3CurveResult) proximity(final float64) float64 {
	possible := r.InitialCost - r.GACost
	if possible <= 0 {
		return 1
	}
	return (r.InitialCost - final) / possible
}

// DeviationHLF returns (C_final − C_GA)/C_GA, the paper's "deviation
// from the GA-optimal" that grows from 13% to 28% as the TM densifies.
func (r *Fig3CurveResult) DeviationHLF() float64 {
	if r.GACost <= 0 {
		return 0
	}
	return (r.FinalHLF - r.GACost) / r.GACost
}

// Fig3CostRatio reproduces one panel of Fig. 3d–i for the given family
// and density: it computes the GA reference allocation, then runs S-CORE
// under HLF and RR from the same initial allocation and reports cost
// ratios over time.
func Fig3CostRatio(family Family, density Density, scale Scale, seed int64) (*Fig3CurveResult, error) {
	base, err := NewScenario(family, scale, density, seed)
	if err != nil {
		return nil, err
	}
	res := &Fig3CurveResult{Family: family, Density: density}
	res.InitialCost = base.Eng.TotalCost()

	gaRes, err := ga.Optimize(base.Eng, gaConfigFor(scale), base.Rng)
	if err != nil {
		return nil, err
	}
	res.GACost = gaRes.BestCost
	res.GAGenerations = gaRes.Generations

	for _, pol := range []token.Policy{token.HighestLevelFirst{}, token.RoundRobin{}} {
		m, err := base.runCell(base.Eng.CostModel(), base.Eng.Config(), pol, simConfigFor(base.Cl.NumVMs(), 8))
		if err != nil {
			return nil, err
		}
		series := m.CostRatioSeries(res.GACost)
		switch pol.(type) {
		case token.HighestLevelFirst:
			res.HLF = series
			res.FinalHLF = m.FinalCost
		default:
			res.RR = series
			res.FinalRR = m.FinalCost
		}
	}
	return res, nil
}

// Render renders the panel as an ASCII chart plus headline numbers.
func (r *Fig3CurveResult) Render(w io.Writer) {
	title := fmt.Sprintf("Fig 3 (%s, %s): communication cost ratio vs GA-optimal", r.Family, r.Density)
	viz.LineChart(w, title, 72, 14,
		viz.Series{Name: "HLF", X: r.HLF.T, Y: r.HLF.V},
		viz.Series{Name: "RR", X: r.RR.T, Y: r.RR.V},
	)
	fmt.Fprintf(w, "  initial=%.4g GA-optimal=%.4g (in %d gens) finalHLF=%.4g finalRR=%.4g\n",
		r.InitialCost, r.GACost, r.GAGenerations, r.FinalHLF, r.FinalRR)
	fmt.Fprintf(w, "  proximity-to-optimal: HLF=%.1f%% RR=%.1f%%; deviation (HLF): %.1f%%\n",
		100*r.ProximityHLF(), 100*r.ProximityRR(), 100*r.DeviationHLF())
}
