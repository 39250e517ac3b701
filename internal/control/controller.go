package control

import (
	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/shard"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// Config is what a caller hands the controller.
type Config struct {
	// Metrics, when set, mirrors the controller's state into the registry
	// (see NewMetrics); nil disables instrumentation.
	Metrics *Metrics
}

// Controller is the adaptive control plane's facade: it keeps a live
// hotspot Summary of a bound traffic matrix + cluster and plans shard
// count/granularity with hysteresis. One controller serves one decision
// plane (the in-process Coordinator, the resident service's loop or the
// distributed Reconciler), each of which consumes it as a shard.Tuner.
//
// Synchronization contract: the controller folds traffic mutations
// lazily (on Plan/Recommendation) through the matrix changelog
// and placement mutations eagerly through cluster observation hooks.
// Callers must therefore query the controller — which folds any pending
// rate changes — before applying placement moves that follow traffic
// mutations; both schedulers do, because they plan at round start and
// freeze traffic for the round.
type Controller struct {
	topo topology.Topology
	cfg  Config
	sum  *Summary

	tm *traffic.Matrix
	cl *cluster.Cluster
	// gen is the traffic generation the summary has folded; dirty forces
	// a full rebuild (changelog overflow or bulk allocation rewrite).
	gen   uint64
	dirty bool

	cur     Recommendation
	curSet  bool
	pending Recommendation
	streak  int
}

// New returns a controller for topo. Bind attaches the measured state.
func New(topo topology.Topology, cfg Config) *Controller {
	return &Controller{
		topo: topo,
		cfg:  cfg,
		sum:  NewSummary(topo),
	}
}

// Bind attaches the traffic matrix and cluster the controller measures,
// builds the initial summary, and registers the allocation observer.
// The returned detach unregisters it. The controller is not safe for
// use from multiple goroutines; both schedulers drive it from their
// round loop, which also serializes the observer callbacks (cluster
// mutations happen inside rounds).
func (c *Controller) Bind(tm *traffic.Matrix, cl *cluster.Cluster) (detach func()) {
	c.tm, c.cl = tm, cl
	c.rebuild()
	return cl.Observe(c.onAllocChange, c.onAllocReset)
}

// rackOfHost buckets a host, NoHost mapping to -1 (skipped by AddEdge).
func (c *Controller) rackOfHost(h cluster.HostID) int {
	if h == cluster.NoHost {
		return -1
	}
	return c.topo.RackOf(h)
}

// rebuild refolds the whole matrix — the fallback when the changelog
// window was outrun or the allocation was bulk-rewritten. It streams the
// pairs: sums of rates are exact, so the fold order is free, and the
// matrix's materialized pair list stays unbuilt.
func (c *Controller) rebuild() {
	c.sum.Reset()
	c.tm.ForEachPair(func(a, b cluster.VMID, rate float64) {
		ra, rb := c.rackOfHost(c.cl.HostOf(a)), c.rackOfHost(c.cl.HostOf(b))
		if ra < 0 || rb < 0 {
			return
		}
		c.sum.AddEdge(ra, rb, rate)
	})
	c.gen = c.tm.Generation()
	c.dirty = false
}

// sync folds pending traffic mutations. Placement moves are folded
// eagerly by the observer (which drains the changelog first, with the
// moving VM pinned to its pre-move host), so whenever the controller is
// queried the summary matches the live (matrix, placement) pair. It
// reports whether a full rebuild ran instead of an incremental fold.
//
// overrideVM/overrideHost pin one VM to a past position while folding —
// the observer fires after the cluster has applied a move, but any
// still-unfolded rate change to that VM's pairs predates the move and
// belongs at the old rack.
func (c *Controller) sync() { c.syncOverride(cluster.VMID(0), false, cluster.NoHost) }

func (c *Controller) syncOverride(overrideVM cluster.VMID, hasOverride bool, overrideHost cluster.HostID) (rebuilt bool) {
	if c.tm == nil {
		return false
	}
	if c.dirty {
		c.rebuild()
		return true
	}
	changes, ok := c.tm.ChangesSince(c.gen)
	if !ok {
		c.rebuild()
		return true
	}
	locate := func(vm cluster.VMID) int {
		if hasOverride && vm == overrideVM {
			return c.rackOfHost(overrideHost)
		}
		return c.rackOfHost(c.cl.HostOf(vm))
	}
	for _, ch := range changes {
		ra, rb := locate(ch.A), locate(ch.B)
		if ra < 0 || rb < 0 {
			continue
		}
		c.sum.AddEdge(ra, rb, ch.New-ch.Old)
	}
	c.gen = c.tm.Generation()
	return false
}

// onAllocChange re-buckets one VM's adjacency row for a placement
// mutation — O(pending changes + degree), never a rescan. Pending rate
// changes are folded first with the VM pinned to its pre-move host, so
// interleaved rate/move churn stays exact; if that fold fell back to a
// full rebuild the rebuild already saw the post-move placement and the
// row shift is skipped.
func (c *Controller) onAllocChange(vm cluster.VMID, from, to cluster.HostID) {
	if c.dirty {
		return // a bulk rewrite is pending; the next query rebuilds
	}
	if c.syncOverride(vm, true, from) {
		return
	}
	rf, rt := c.rackOfHost(from), c.rackOfHost(to)
	if rf == rt {
		return
	}
	for _, e := range c.tm.NeighborEdges(vm) {
		rp := c.rackOfHost(c.cl.HostOf(e.Peer))
		if rp < 0 {
			continue
		}
		if rf >= 0 {
			c.sum.AddEdge(rf, rp, -e.Rate)
		}
		if rt >= 0 {
			c.sum.AddEdge(rt, rp, e.Rate)
		}
	}
}

// onAllocReset marks the summary for a full rebuild after a bulk
// allocation rewrite (Restore).
func (c *Controller) onAllocReset() { c.dirty = true }

// Recommendation syncs pending traffic changes and returns the adopted
// recommendation, applying stableRounds hysteresis: the first
// evaluation adopts immediately; afterwards a differing plan must
// repeat on stableRounds consecutive evaluations before it replaces
// the current one.
func (c *Controller) Recommendation() Recommendation {
	c.sync()
	rec := Plan(c.sum)
	if !c.curSet {
		c.cur, c.curSet = rec, true
		c.adopted()
		return c.cur
	}
	if rec == c.cur {
		c.streak = 0
		c.observe()
		return c.cur
	}
	if rec == c.pending {
		c.streak++
	} else {
		c.pending, c.streak = rec, 1
	}
	if c.streak >= stableRounds {
		c.cur, c.streak = rec, 0
		c.adopted()
	} else {
		c.observe()
	}
	return c.cur
}

// adopted records a newly adopted recommendation; observe refreshes the
// summary-derived gauges without counting a plan change.
func (c *Controller) adopted() {
	m := c.cfg.Metrics
	if m == nil {
		return
	}
	m.PlanChanges.Inc()
	c.observe()
}

func (c *Controller) observe() {
	m := c.cfg.Metrics
	if m == nil {
		return
	}
	m.Shards.Set(float64(c.cur.Shards))
	m.Granularity.Set(float64(c.cur.Granularity))
	m.TotalRate.Set(c.sum.Total())
	ir, ip, cp := c.sum.LocalityShares()
	m.IntraRack.Set(ir)
	m.IntraPod.Set(ip)
	m.CrossPod.Set(cp)
}

// Plan implements shard.Tuner.
func (c *Controller) Plan() (int, shard.Granularity) {
	rec := c.Recommendation()
	return rec.Shards, rec.Granularity
}

// PersistedState is the controller's durable decision state — the
// hysteresis loop of Recommendation. The hotspot summary itself is
// derived state (rebuilt from the traffic matrix + placement on Bind),
// so it is not persisted; without the hysteresis triple, though, a
// freshly restored controller would re-adopt its first plan immediately
// instead of resuming the stableRounds streak, and its subsequent
// recommendations could diverge from the uninterrupted run's.
type PersistedState struct {
	Current    Recommendation `json:"current"`
	CurrentSet bool           `json:"current_set"`
	Pending    Recommendation `json:"pending"`
	Streak     int            `json:"streak"`
}

// PersistedState captures the hysteresis state for snapshotting.
func (c *Controller) PersistedState() PersistedState {
	return PersistedState{Current: c.cur, CurrentSet: c.curSet, Pending: c.pending, Streak: c.streak}
}

// RestorePersisted reinstates snapshot state captured by PersistedState.
// Call after Bind: the summary is already rebuilt from the restored
// matrix and placement, and only the hysteresis triple needs seeding.
func (c *Controller) RestorePersisted(s PersistedState) {
	c.cur, c.curSet, c.pending, c.streak = s.Current, s.CurrentSet, s.Pending, s.Streak
}
