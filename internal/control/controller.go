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
// hotspot Summary of a bound traffic matrix + cluster, through a
// traffic.Follower, and plans shard count/granularity with hysteresis.
// One controller serves one decision plane (the in-process Coordinator,
// the resident service's loop or the distributed Reconciler), each of
// which consumes it as a shard.Tuner.
type Controller struct {
	topo   topology.Topology
	cfg    Config
	sum    *Summary
	follow *traffic.Follower

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

// Bind attaches the traffic matrix and cluster the controller measures
// and builds the initial summary; each Recommendation folds what changed
// since from their changelogs. The controller registers nothing with the
// cluster, so the returned unbind releases nothing: it is kept for
// callers that defer it. The controller is not safe for use from
// multiple goroutines; both schedulers drive it from their round loop.
func (c *Controller) Bind(tm *traffic.Matrix, cl *cluster.Cluster) (unbind func()) {
	c.follow = traffic.Follow(tm, cl, c.sum.Reset, c.addPair)
	c.follow.Sync()
	return func() {}
}

// addPair buckets a pair's hosts to racks and folds delta into the
// summary; a pair with an unplaced endpoint is not in it.
func (c *Controller) addPair(_, _ cluster.VMID, ha, hb cluster.HostID, delta float64) {
	if ha != cluster.NoHost && hb != cluster.NoHost {
		c.sum.AddEdge(c.topo.RackOf(ha), c.topo.RackOf(hb), delta)
	}
}

// Recommendation syncs pending traffic changes and returns the adopted
// recommendation, applying stableRounds hysteresis: the first
// evaluation adopts immediately; afterwards a differing plan must
// repeat on stableRounds consecutive evaluations before it replaces
// the current one.
func (c *Controller) Recommendation() Recommendation {
	if c.follow != nil {
		c.follow.Sync()
	}
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
