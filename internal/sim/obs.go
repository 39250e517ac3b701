package sim

// This file binds a run to the observability plane (internal/obs). The
// registry is the run's single source of truth for the scalar counters
// that used to be accumulated three times over (per-round in the
// runner, per-ring in ShardStats, and again in RoundReport): the
// schedulers record into shared counter families as they go, and the
// runner reads the deltas back into sim.Metrics when the run finishes.

import (
	"github.com/score-dc/score/internal/control"
	"github.com/score-dc/score/internal/hypervisor"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/traffic"
)

// runObs bundles one run's instrumentation handles. Every runner has
// one: when Config.Obs is nil the run records into a private registry,
// so the Metrics read-back below works whether or not an exposition
// endpoint is attached.
type runObs struct {
	reg   *obs.Registry
	trace *obs.Tracer

	// plane carries the scheduler families (embedded shard.Metrics,
	// shared by name between both planes) plus the fault-tolerance and
	// transport series; ctrl the adaptive control plane's.
	plane *hypervisor.PlaneMetrics
	ctrl  *control.Metrics

	cost      *obs.Gauge
	trafPairs *obs.Gauge
	traf      func(*traffic.Matrix) uint64 // see control.TrafficSampler

	// Counter values at run start: a caller-provided registry may carry
	// totals from earlier runs, so the read-back uses deltas.
	base struct {
		rounds, hops, migrations           uint64
		crossApplied, crossRejected, stale uint64
		regens, spurious                   uint64
	}
}

func newRunObs(cfg Config) *runObs {
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	o := &runObs{
		reg:       reg,
		trace:     cfg.Trace,
		plane:     hypervisor.NewPlaneMetrics(reg),
		ctrl:      control.NewMetrics(reg),
		cost:      control.CostGauge(reg),
		trafPairs: reg.Gauge("score_traffic_pairs", "Communicating VM pairs in the traffic matrix."),
		traf:      control.TrafficSampler(reg),
	}
	p := o.plane
	o.base.rounds = p.Rounds.Value()
	o.base.hops = p.Hops.Value()
	o.base.migrations = p.Migrations.Value()
	o.base.crossApplied = p.CrossApplied.Value()
	o.base.crossRejected = p.CrossRejected.Value()
	o.base.stale = p.StaleRejected.Value()
	o.base.regens = p.Regens.Value()
	o.base.spurious = p.Spurious.Value()
	return o
}

// sample mirrors one cost sample and the matrix footprint into the
// registry, with a trace event per batch of compaction passes.
func (o *runObs) sample(cost float64, tm *traffic.Matrix) {
	o.cost.Set(cost)
	o.trafPairs.Set(float64(tm.NumPairs()))
	if d := o.traf(tm); d > 0 && o.trace != nil {
		o.trace.Record(obs.Event{Kind: obs.EvCompaction, Shard: -1, Arg: int64(d)})
	}
}

// finish populates the Metrics fields the schedulers already counted.
// CrossProposed keeps its historical meaning — the proposals that
// reached a verdict (applied + rejected), not the raw queue depth that
// score_cross_proposals_total reports.
func (o *runObs) finish(m *Metrics) {
	p := o.plane
	m.Rounds = int(p.Rounds.Value() - o.base.rounds)
	m.TokenHops = int(p.Hops.Value() - o.base.hops)
	m.TotalMigrations = int(p.Migrations.Value() - o.base.migrations)
	ca := p.CrossApplied.Value() - o.base.crossApplied
	cr := p.CrossRejected.Value() - o.base.crossRejected
	m.CrossApplied = int(ca)
	m.CrossProposed = int(ca + cr)
	m.StaleRejected = int(p.StaleRejected.Value() - o.base.stale)
	m.TokensRegenerated = int(p.Regens.Value() - o.base.regens)
	m.SpuriousRegens = int(p.Spurious.Value() - o.base.spurious)
}

// appendCost samples the global communication cost into the time series
// and mirrors it, with the traffic-matrix footprint, into the registry.
func (r *Runner) appendCost(t float64) {
	c := r.eng.TotalCost()
	r.metrics.Cost.Append(t, c)
	r.ob.sample(c, r.eng.Traffic())
}
