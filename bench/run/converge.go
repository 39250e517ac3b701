package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/score-dc/score"
	"github.com/score-dc/score/bench/gen"
	"github.com/score-dc/score/bench/span"
	"github.com/score-dc/score/bench/stat"
)

// converge is batch scheduling at the ROADMAP milestone instance: an
// auto-tuned sharded coordinator driving a 100k-VM fat-tree from its
// initial placement to near-quiescence, pass after pass.
type converge struct {
	inst  *gen.Instance
	coord *score.ShardCoordinator
	snap  map[score.VMID]score.HostID

	unbind        func()
	roundsPerPass int

	rounds int // timed rounds run so far; numbers the ops

	// Per work() call: cost after ÷ before of every pass, and moves.
	ratios []float64
	moves  int
}

func (c *converge) setup(r *run) error {
	sz := r.opt.size
	inst, err := gen.FatTree(sz.convergeK, sz.vmsPerHost, r.opt.seed)
	if err != nil {
		return err
	}
	c.inst, c.roundsPerPass = inst, sz.roundsPerPass
	// No metrics registry, tracer or audit ring is attached: the root
	// score package has no constructor for them, and this workload stays
	// on the public surface. Instrumented rounds are what react times.
	ctrl := score.NewController(inst.Topo, score.ControlConfig{})
	c.unbind = ctrl.Bind(inst.TM, inst.Cl)
	c.coord, err = score.NewShardCoordinator(inst.Eng, score.ShardConfig{
		Tuner:     ctrl,
		NewPolicy: func(int) score.TokenPolicy { return score.RoundRobin{} },
	})
	if err != nil {
		return err
	}
	c.snap = inst.Cl.Snapshot()
	r.notes["vms"] = inst.Cl.NumVMs()
	r.notes["pairs"] = inst.TM.NumPairs()
	r.m.lap()
	// Warm-up: one untimed pass sizes the coordinator's round scratch
	// and settles the tuner's hysteresis.
	for i := 0; i < sz.roundsPerPass; i++ {
		if _, err := c.coord.RunRound(); err != nil {
			return err
		}
		r.m.lap()
	}
	return nil
}

func (c *converge) cpuSeconds(r *run) (float64, error) { return r.selfCPUSeconds(), nil }

func (c *converge) work(r *run, share float64, rec *span.Recorder) error {
	sz := r.opt.size
	passes := scaled(sz.convergePasses, share*r.opt.scale(), sz.minPasses)
	c.ratios, c.moves = c.ratios[:0], 0
	for p := 0; p < passes; p++ {
		// Restoring the placement and re-reading the cost belong to the
		// pass, so to run_s, but to no round.
		r.m.skip()
		sp := rec.Start(-1, "cluster.Restore", -1)
		err := c.inst.Cl.Restore(c.snap)
		rec.End(sp)
		if err != nil {
			return err
		}
		before := c.inst.Eng.TotalCost()
		r.m.lap()
		realized := 0.0
		for i := 0; i < sz.roundsPerPass; i++ {
			op := c.rounds
			c.rounds++
			r.attempted++
			root := rec.Start(-1, "converge.round", op)
			t0 := time.Now()
			call := rec.Start(root, "shard.RunRound", op)
			res, err := c.coord.RunRound()
			rec.End(call)
			rec.End(root)
			r.m.op(t0)
			if err != nil {
				r.failOp("pass %d round %d: %v", p, i, err)
				continue
			}
			realized += res.RealizedDelta
			c.moves += len(res.Applied)
		}
		after := c.inst.Eng.TotalCost()
		if !closeRel(before-realized, after, 1e-6) {
			r.failOp("pass %d: cost %.9g − realized %.9g ≠ cost after %.9g", p, before, realized, after)
		}
		c.ratios = append(c.ratios, after/before)
	}
	r.notes["passes"] = passes
	return nil
}

// tailMs is the mean of the slowest 3 in 16 rounds: the cold rounds
// that follow a bulk placement rewrite — each pass's first applies
// about two thirds of the pass's migrations and takes twice a quiet
// round, the next two most of the rest. A plain p90 of the rounds would
// sit on the cliff between those and the quiet ones, and each pass has
// only one slowest round; the mean of all that lies beyond the cliff
// rests on 12 rounds of 64.
func (c *converge) tailMs(lat []float64) float64 {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	n := (len(s)*3 + 15) / 16
	return stat.Sum(s[len(s)-n:]) / float64(n)
}

func (c *converge) finish(r *run) (quality, error) {
	if err := checkPlacement(c.inst.Cl); err != nil {
		r.failOp("placement: %v", err)
	}
	if err := checkCost(c.inst.Eng); err != nil {
		r.failOp("cost: %v", err)
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return quality{}, err
	}
	if len(c.ratios) == 0 {
		return quality{}, fmt.Errorf("no pass completed")
	}
	return quality{
		costRatio:  stat.Sum(c.ratios) / float64(len(c.ratios)),
		movesPerVM: float64(c.moves) / float64(len(c.ratios)) / float64(c.inst.Cl.NumVMs()),
		peakRSSMB:  rss,
	}, nil
}

func (c *converge) close() {
	if c.coord != nil {
		c.coord.Close()
		c.coord = nil
	}
	if c.unbind != nil {
		c.unbind()
		c.unbind = nil
	}
}
