package sim

// This file implements the runner's sharded mode: instead of
// circulating one token through the discrete-event engine, the runner
// executes partition/reconcile rounds via internal/shard. Each round
// runs one token ring per topology-aligned shard concurrently;
// simulated time advances by the longest ring's hop count (the rings
// overlap in wall-clock), and the cost series is sampled at round
// boundaries rather than on the discrete-event tick; the run starts and
// finishes as every plane does (Runner.begin, Runner.finish). Migration
// durations and downtimes are still drawn from the pre-copy model under
// the link load, so Fig. 5-style distributions remain comparable with
// single-token runs. The load is read through linkUtil, from the
// engine's NIC loads, which follow every applied move.

import (
	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/control"
	"github.com/score-dc/score/internal/migration"
	"github.com/score-dc/score/internal/shard"
)

// controller builds and binds the adaptive control plane for an
// AutoTune run. Returns nil when auto-tuning is off.
func (r *Runner) controller() *control.Controller {
	if !r.cfg.AutoTune {
		return nil
	}
	ctrl := control.New(r.eng.Topology(), control.Config{Metrics: r.ob.ctrl})
	ctrl.Bind(r.eng.Traffic(), r.eng.Cluster())
	return ctrl
}

// runRounds is the round loop of both sharded planes: the hop clock
// (rings overlap, so a round costs its longest ring), the per-shard
// roll-up, the iteration and cost series, the stop conditions — the
// duration budget, the iteration cap, or quiescence (a round that
// applies no migration) — and the final flush. step runs one round on
// the plane, folds what it applied into the mirror cluster and the link
// loads, adds any plane-specific extras to the shard totals stats
// returns, and returns the round, which the run's totals are summed
// from.
func (r *Runner) runRounds(step func(stats func(shard int) *ShardStats) (*shard.Round, error)) (*Metrics, error) {
	r.begin()
	perShard := map[int]*ShardStats{}
	stats := func(shard int) *ShardStats {
		st, ok := perShard[shard]
		if !ok {
			st = &ShardStats{Shard: shard}
			perShard[shard] = st
		}
		return st
	}
	now := 0.0
	for round := 1; ; round++ {
		out, err := step(stats)
		if err != nil {
			return nil, err
		}
		for _, sh := range out.Shards {
			st := stats(sh.Shard)
			r.metrics.TokenHops += sh.Hops
			st.VMs = sh.VMs
			st.Hops += sh.Hops
			st.Migrations += sh.Merged
			st.Proposals += sh.Proposed
		}
		applied := len(out.Applied)
		r.metrics.Rounds++
		r.metrics.TotalMigrations += applied
		r.metrics.CrossApplied += out.CrossApplied
		// CrossProposed keeps its historical meaning — the proposals that
		// reached a verdict, not the raw queue depth.
		r.metrics.CrossProposed += out.CrossApplied + out.CrossRejected
		r.metrics.StaleRejected += out.StaleRejected
		now += float64(max(out.RingHops, 1)) * r.cfg.HopLatencyS
		r.metrics.Iterations = append(r.metrics.Iterations, IterationStats{
			Index:      round,
			Migrations: applied,
			VMs:        r.numVMs,
			Ratio:      float64(applied) / float64(r.numVMs),
		})
		r.metrics.ShardsChosen = append(r.metrics.ShardsChosen, len(out.Shards))
		r.appendCost(now)

		if applied == 0 || now >= r.cfg.DurationS {
			break
		}
		if r.cfg.MaxIterations > 0 && round >= r.cfg.MaxIterations {
			break
		}
	}

	for s := 0; s < len(perShard); s++ {
		if st, ok := perShard[s]; ok {
			r.metrics.PerShard = append(r.metrics.PerShard, *st)
		}
	}
	return r.finish(), nil
}

// runSharded runs the in-process plane: shard.Coordinator rounds against
// the engine's own cluster.
func (r *Runner) runSharded() (*Metrics, error) {
	ctrl := r.controller()
	scfg := shard.Config{
		Shards:      r.cfg.Shards,
		Granularity: r.cfg.ShardGranularity,
		Metrics:     r.ob.plane.Metrics,
		Trace:       r.ob.trace,
		Audit:       r.cfg.Audit,
	}
	if ctrl != nil {
		scfg.Tuner = ctrl
	}
	coord, err := shard.NewCoordinator(r.eng, scfg)
	if err != nil {
		return nil, err
	}
	util := make([]float64, r.eng.Cluster().NumHosts())
	return r.runRounds(func(func(int) *ShardStats) (*shard.Round, error) {
		// Every move is modelled under the loads of the round's starting
		// allocation, read before the merge applies any.
		for h := range util {
			util[h] = r.linkUtil(cluster.HostID(h))
		}
		res, err := coord.RunRound()
		if err != nil {
			return nil, err
		}
		for _, d := range res.Applied {
			r.charge(migration.Sample(r.rng, max(util[d.From], util[d.Target])))
		}
		return res, nil
	})
}
