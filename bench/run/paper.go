package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/score-dc/score"
	"github.com/score-dc/score/bench/gen"
	"github.com/score-dc/score/bench/span"
	"github.com/score-dc/score/bench/stat"
)

// paperDensities are Fig. 3's three traffic loads; op i runs at
// paperDensities[i%3].
var paperDensities = [...]float64{1, 10, 50}

// paper is the reproduction path: the paper's own canonical tree, one
// circulating token under Highest-Level First, driven by the serial
// discrete-event Runner with link-load tracking — a fresh random
// placement and matrix per op.
type paper struct {
	topo *score.CanonicalTree
	next int // ops run so far, so every op's inputs are new

	ratios, moveShares []float64
}

func (p *paper) setup(r *run) error {
	topo, err := score.NewCanonicalTree(r.opt.size.paperTree)
	if err != nil {
		return err
	}
	p.topo = topo
	r.notes["vms"] = topo.Hosts() * r.opt.size.paperVMsPerHost
	for i := 0; i < r.opt.size.paperWarm; i++ {
		if err := p.runOne(r, nil, false); err != nil {
			return err
		}
	}
	return nil
}

func (p *paper) cpuSeconds(r *run) (float64, error) { return r.selfCPUSeconds(), nil }

// runOne builds op p.next's instance, times one Run over it and checks
// the outcome. counted is false for warm-up runs, which are part of
// set-up, instance build and all.
func (p *paper) runOne(r *run, rec *span.Recorder, counted bool) error {
	sz := r.opt.size
	op := p.next
	p.next++
	// Building the op's inputs and checking its outputs are the runner's
	// own work: both happen with the phase's clocks stopped.
	var inst *gen.Instance
	build := func() (err error) {
		sp := rec.Start(-1, "paper.build", -1)
		inst, err = gen.Canonical(p.topo, sz.paperVMsPerHost, paperDensities[op%len(paperDensities)], r.opt.seed+int64(op))
		rec.End(sp)
		return err
	}
	var err error
	if counted {
		err = r.untimed(build)
	} else {
		err = build()
	}
	if err != nil {
		return err
	}
	defer inst.Eng.Detach()
	cfg := score.DefaultSimConfig()
	cfg.MaxIterations = sz.paperPasses
	cfg.DurationS = float64(sz.paperPasses*inst.Cl.NumVMs())*cfg.HopLatencyS + cfg.SampleIntervalS
	runner, err := score.NewRunner(inst.Eng, score.HighestLevelFirst{}, cfg, rand.New(rand.NewSource(r.opt.seed+int64(op))))
	if err != nil {
		return err
	}
	if counted {
		r.attempted++
	}
	root := rec.Start(-1, "paper.run", op)
	t0 := time.Now()
	call := rec.Start(root, "sim.Run", op)
	m, err := runner.Run()
	rec.End(call)
	rec.End(root)
	if !counted {
		r.m.lap()
		return err
	}
	r.m.op(t0)
	switch {
	case err != nil:
		r.failOp("run %d: %v", op, err)
	case m.TokenHops != sz.paperPasses*inst.Cl.NumVMs():
		r.failOp("run %d: %d token hops, want %d", op, m.TokenHops, sz.paperPasses*inst.Cl.NumVMs())
	case m.FinalCost > m.InitialCost:
		r.failOp("run %d: cost rose from %.9g to %.9g", op, m.InitialCost, m.FinalCost)
	case !closeRel(m.FinalCost, inst.Eng.TotalCost(), 1e-12):
		r.failOp("run %d: reported final cost %.17g, engine says %.17g", op, m.FinalCost, inst.Eng.TotalCost())
	default:
		r.untimed(func() error {
			if err := checkPlacement(inst.Cl); err != nil {
				r.failOp("run %d placement: %v", op, err)
			} else if err := checkCost(inst.Eng); err != nil {
				r.failOp("run %d cost: %v", op, err)
			}
			return nil
		})
		p.ratios = append(p.ratios, m.FinalCost/m.InitialCost)
		p.moveShares = append(p.moveShares, float64(m.TotalMigrations)/float64(inst.Cl.NumVMs()))
	}
	return nil
}

func (p *paper) work(r *run, share float64, rec *span.Recorder) error {
	runs := scaled(r.opt.size.paperRuns, share*r.opt.scale(), r.opt.size.minRuns)
	p.ratios, p.moveShares = p.ratios[:0], p.moveShares[:0]
	for i := 0; i < runs; i++ {
		if err := p.runOne(r, rec, true); err != nil {
			return err
		}
	}
	r.notes["runs"] = runs
	return nil
}

// tailMs is the p75 Run: the three densities cost nearly the same time
// per Run, so the 48 ops are one population, and p75 is the highest
// round percentile that still has ten of them beyond it.
func (p *paper) tailMs(lat []float64) float64 { return stat.Percentile(lat, 75) }

func (p *paper) finish(r *run) (quality, error) {
	if len(p.ratios) == 0 {
		return quality{}, fmt.Errorf("no run completed")
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return quality{}, err
	}
	n := float64(len(p.ratios))
	return quality{costRatio: stat.Sum(p.ratios) / n, movesPerVM: stat.Sum(p.moveShares) / n, peakRSSMB: rss}, nil
}

func (p *paper) close() {}
