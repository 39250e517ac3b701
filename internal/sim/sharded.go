package sim

// This file implements the runner's sharded mode: instead of
// circulating one token through the discrete-event engine, the runner
// executes partition/reconcile rounds via internal/shard. Each round
// runs one token ring per topology-aligned shard concurrently;
// simulated time advances by the longest ring's hop count (the rings
// overlap in wall-clock), and the cost series is sampled at round
// boundaries. Migration durations and downtimes are still drawn from
// the pre-copy model under the current link load, so Fig. 5-style
// distributions remain comparable with single-token runs.

import (
	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/control"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/shard"
)

// controller builds and binds the adaptive control plane for an
// AutoTune run; detach must run before the engine's cluster outlives
// the run. Returns nil when auto-tuning is off.
func (r *Runner) controller() (*control.Controller, func()) {
	if !r.cfg.AutoTune {
		return nil, func() {}
	}
	ctrl := control.New(r.eng.Topology(), control.Config{Metrics: r.ob.ctrl})
	detach := ctrl.Bind(r.eng.Traffic(), r.eng.Cluster())
	return ctrl, detach
}

// modelMigration draws the pre-copy model for one executed move under
// the worse of the two endpoints' access-link loads and folds the
// result into the metrics — the per-migration accounting shared by the
// in-process and distributed sharded modes.
func (r *Runner) modelMigration(from, target cluster.HostID) {
	bg := r.net.HostLinkUtilization(from)
	if t := r.net.HostLinkUtilization(target); t > bg {
		bg = t
	}
	mres := r.cfg.Model.Migrate(r.cfg.Workloads.Draw(r.rng), bg)
	r.metrics.TotalMigratedMB += mres.MigratedMB
	r.metrics.MigrationTimesS = append(r.metrics.MigrationTimesS, mres.TotalS)
	r.metrics.DowntimesMS = append(r.metrics.DowntimesMS, mres.DowntimeMS)
}

// finishUtilization records the final per-level link utilizations.
func (r *Runner) finishUtilization(cl *cluster.Cluster) {
	r.net.Sync(r.eng.Traffic(), cl)
	r.metrics.UtilizationByLevel = map[int][]float64{
		1: r.net.UtilizationAtLevel(1),
		2: r.net.UtilizationAtLevel(2),
		3: r.net.UtilizationAtLevel(3),
	}
}

// shiftApplied folds one round's applied migrations into the link loads
// with ShiftPair, replaying them in application order. The cluster
// already holds the post-round allocation, so each VM's round-start
// position is reconstructed from the move list (a VM's first move names
// it in From) and peer positions are advanced move by move — every
// shift uses the allocation as it stood at that point of the round.
func (r *Runner) shiftApplied(applied []core.Decision) {
	if len(applied) == 0 {
		return
	}
	cl := r.eng.Cluster()
	pos := make(map[cluster.VMID]cluster.HostID, len(applied))
	for i := len(applied) - 1; i >= 0; i-- {
		pos[applied[i].VM] = applied[i].From
	}
	hostOf := func(vm cluster.VMID) cluster.HostID {
		if h, ok := pos[vm]; ok {
			return h
		}
		return cl.HostOf(vm) // unmoved this round: current == round start
	}
	for _, d := range applied {
		r.shiftFlows(d.VM, d.From, d.Target, hostOf)
		pos[d.VM] = d.Target
	}
}

// shiftFlows moves vm's flows off the paths out of host from and onto
// the paths out of host to; hostOf places the peer end of each flow.
func (r *Runner) shiftFlows(vm cluster.VMID, from, to cluster.HostID, hostOf func(cluster.VMID) cluster.HostID) {
	for _, ed := range r.eng.Traffic().NeighborEdges(vm) {
		hz := hostOf(ed.Peer)
		r.net.ShiftPair(vm, ed.Peer, from, hz, -ed.Rate)
		r.net.ShiftPair(vm, ed.Peer, to, hz, ed.Rate)
	}
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
	cl := r.eng.Cluster()
	r.metrics.InitialCost = r.eng.TotalCost()
	r.metrics.Cost.Append(0, r.metrics.InitialCost)
	r.ob.sample(r.metrics.InitialCost, r.eng.Traffic())
	r.net.Recompute(r.eng.Traffic(), cl)

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
	r.metrics.FinalCost = r.eng.TotalCost()
	r.finishUtilization(cl)
	return &r.metrics, nil
}

// runSharded runs the in-process plane: shard.Coordinator rounds against
// the engine's own cluster.
func (r *Runner) runSharded() (*Metrics, error) {
	ctrl, detach := r.controller()
	defer detach()
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
	return r.runRounds(func(func(int) *ShardStats) (*shard.Round, error) {
		res, err := coord.RunRound()
		if err != nil {
			return nil, err
		}
		// Per-migration modeling: durations, downtime and moved bytes
		// under the link load of the round's starting allocation.
		for _, d := range res.Applied {
			r.modelMigration(d.From, d.Target)
		}
		// Fold the round into the link loads incrementally: any traffic
		// changelog first (over round-start positions), then the applied
		// moves replayed in order — no full-pair Recompute per round.
		r.net.Sync(r.eng.Traffic(), r.eng.Cluster())
		r.shiftApplied(res.Applied)
		return res, nil
	})
}
