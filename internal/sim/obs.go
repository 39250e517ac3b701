package sim

// This file binds a run to the observability plane (internal/obs): the
// schedulers record into shared counter families as they go, for an
// exposition endpoint to scrape. sim.Metrics does not read them back —
// its totals are summed from what each round returns.

import (
	"github.com/score-dc/score/internal/control"
	"github.com/score-dc/score/internal/hypervisor"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/traffic"
)

// runObs bundles one run's instrumentation handles. Every runner has
// one: when Config.Obs is nil the run records into a private registry.
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
}

func newRunObs(cfg Config) *runObs {
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &runObs{
		reg:       reg,
		trace:     cfg.Trace,
		plane:     hypervisor.NewPlaneMetrics(reg),
		ctrl:      control.NewMetrics(reg),
		cost:      control.CostGauge(reg),
		trafPairs: reg.Gauge("score_traffic_pairs", "Communicating VM pairs in the traffic matrix."),
		traf:      control.TrafficSampler(reg),
	}
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

// appendCost samples the global communication cost into the time series
// and mirrors it, with the traffic-matrix footprint, into the registry.
func (r *Runner) appendCost(t float64) {
	c := r.eng.TotalCost()
	r.metrics.Cost.Append(t, c)
	r.ob.sample(c, r.eng.Traffic())
}
