// Package sim orchestrates full S-CORE and Remedy runs in virtual time,
// producing the time series and distributions behind Figs. 2, 3 and 4.
//
// A run circulates the migration token among VMs: each hop, the holding
// VM's hypervisor evaluates the S-CORE migration policy (Theorem 1) from
// local information, optionally starts a live migration (whose duration
// and downtime come from the pre-copy model under the current link
// load), and passes the token on according to the configured policy.
// Global communication cost is sampled on a fixed tick.
//
// A run keeps two clocks: the sampling tick and the plane's next event.
// The single token is in one place at a time, so the serial run has one
// pending token event (the next hop, or a lost token's regeneration),
// and the Remedy run has one pending polling round. Runner.run delivers whichever of the two is due first; of two
// due at one time, the one scheduled first. Every other plane advances
// its own clock round by round.
//
// The model's background load is the busier endpoint's access-link
// utilization: the engine's NIC load of the host (Engine.HostNetLoad,
// kept current by its accounting follower) over the capacity of the
// host's link. On every plane the Runner reads it through one helper
// (linkUtil); the routed link loads (netsim.Network) are built once, at
// the end of a run, for the per-level utilizations of Fig. 4a.
package sim

import (
	"fmt"
	"math/rand"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/migration"
	"github.com/score-dc/score/internal/netsim"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/shard"
	"github.com/score-dc/score/internal/stats"
	"github.com/score-dc/score/internal/token"
)

// Config tunes a simulated S-CORE run.
type Config struct {
	// DurationS is the simulated run length in seconds (the paper's
	// Fig. 3 plots ~700–800 s).
	DurationS float64
	// HopLatencyS is the time for one token hop, covering transfer,
	// flow-table aggregation, location probing and the migration
	// decision.
	HopLatencyS float64
	// SampleIntervalS is the cost-sampling tick for the time series.
	SampleIntervalS float64
	// MaxIterations stops the token after this many full passes
	// (|V| hops each); 0 means run until DurationS.
	MaxIterations int
	// TokenLossProb injects token loss per hop. In the single-token run
	// a lost token is regenerated (with reset level state) at the
	// lowest-ID VM after regenTimeoutS (10 s). In the
	// distributed agent plane (DistributedShards > 0) the loss is
	// injected by a seeded hypervisor.FaultPlan dropping MsgShardToken
	// hops on the wire, and recovery is the reconciler's own: the
	// affected ring regenerates from the reconciler's acked copy on the
	// per-shard deadline, with staged moves intact. This exercises the
	// recovery path a deployment needs even though the paper assumes a
	// reliable token. In-process sharded rounds (Shards > 1) have no
	// wire to lose tokens on and ignore it.
	TokenLossProb float64
	// DistributedDeadlineS overrides the reconciler's per-shard
	// progress deadline (real seconds — the agent plane runs in wall
	// clock, not simulated time); 0 keeps the reconciler default.
	// Only meaningful with DistributedShards > 0.
	DistributedDeadlineS float64
	// Shards > 1 selects the sharded concurrent mode (internal/shard):
	// instead of one circulating token, each round runs an independent
	// token ring per topology-aligned shard concurrently and merges the
	// results through a deterministic reconciliation pass. 0 or 1 keeps
	// the paper's single-token run. Token-loss injection does not apply
	// to sharded rounds. Every sharded mode (this one,
	// DistributedShards, AutoTune) walks its rings in ID order and
	// accepts only a token.RingOrder policy; the others need the single
	// token's history and are refused.
	Shards int
	// ShardGranularity aligns shard boundaries to pods (default) or
	// racks. The rings run on a pool of GOMAXPROCS workers.
	ShardGranularity shard.Granularity
	// DistributedShards > 0 drives the run through the distributed dom0
	// agent plane (internal/hypervisor) instead of the in-process
	// engine: one agent per host over an in-memory transport, one token
	// ring per topology-aligned shard coordinated by a reconciliation
	// agent, and every committed move mirrored into the engine's
	// cluster for cost sampling. 1 reproduces the global agent ring
	// bit for bit; it is mutually exclusive with Shards > 1.
	// ShardGranularity applies. Each agent holds its host's capacity and
	// admits through the engine's rule (core.Admit) on what the capacity
	// responses report — slots, RAM, CPU and NIC load — so every move it
	// commits fits the mirror too.
	DistributedShards int
	// AutoTune enables the adaptive control plane (internal/control): a
	// controller folds the live traffic matrix into locality sums and
	// pod-pair rates and supersedes the fixed shard knobs, re-deriving
	// shard count and granularity every round. With DistributedShards > 0 the
	// distributed agent plane is auto-tuned (the flag's magnitude only
	// selects the plane); otherwise the in-process sharded mode runs
	// auto-tuned, regardless of Shards.
	AutoTune bool
	// TokenDelayProb delays that fraction of shard-token hops by
	// TokenDelayS real seconds on the wire (distributed plane only):
	// load jitter, which regenerates a live ring when the delay exceeds
	// DistributedDeadlineS. Composes with TokenLossProb through the same
	// seeded fault plan.
	TokenDelayProb float64
	TokenDelayS    float64
	// Obs, when set, is the metrics registry the run records into —
	// typically the one an obs.Serve endpoint scrapes. Nil gives the
	// run a private registry.
	Obs *obs.Registry
	// Trace, when set, receives typed round events (ring completions,
	// regenerations, evictions, reconcile verdicts, compactions) in the
	// obs ring buffer.
	Trace *obs.Tracer
	// Audit, when set, receives one decision-provenance record per
	// staged move's merge/reconcile verdict, on whichever scheduler
	// plane the run uses.
	Audit *obs.AuditRing
}

// DefaultConfig covers a scaled-down Fig. 3 style run.
func DefaultConfig() Config {
	return Config{
		DurationS:       800,
		HopLatencyS:     0.05,
		SampleIntervalS: 5,
	}
}

// regenTimeoutS is how long the single-token run waits before
// regenerating a lost token.
const regenTimeoutS = 10

// IterationStats summarizes one full token pass (|V| hops) — the unit of
// Fig. 2's x-axis.
type IterationStats struct {
	Index      int
	Migrations int
	VMs        int
	Ratio      float64
}

// Metrics aggregates a run's observables.
type Metrics struct {
	// Cost is the sampled total communication cost over time.
	Cost stats.TimeSeries
	// InitialCost and FinalCost bracket the run.
	InitialCost, FinalCost float64
	// Iterations carries the per-pass migration ratios of Fig. 2.
	Iterations []IterationStats
	// Migration accounting.
	TotalMigrations   int
	AbortedMigrations int
	TotalMigratedMB   float64
	MigrationTimesS   []float64
	DowntimesMS       []float64
	// Token accounting.
	TokenHops         int
	TokensRegenerated int
	// UtilizationByLevel holds the final per-link utilizations keyed by
	// hierarchy level (Fig. 4a input).
	UtilizationByLevel map[int][]float64
	// PerShard rolls up each shard ring's activity across all rounds
	// (sharded modes only; nil for single-token runs).
	PerShard []ShardStats
	// CrossProposed / CrossApplied count cross-shard migration
	// proposals raised by shard rings and the subset the deterministic
	// reconciliation pass applied; StaleRejected counts staged
	// intra-shard moves dropped at merge time (sharded modes only).
	CrossProposed, CrossApplied int
	StaleRejected               int
	// Rounds counts partition/rings/merge cycles (sharded modes only).
	Rounds int
	// ShardsChosen records the effective ring count of every round
	// (sharded modes only) — under AutoTune, the controller's per-round
	// choice; fixed runs repeat the clamped configuration value.
	ShardsChosen []int
	// SpuriousRegens counts ring regenerations later witnessed
	// unnecessary — a report from the superseded attempt arrived,
	// proving the presumed-lost token alive (distributed plane only).
	SpuriousRegens int
}

// ShardStats aggregates one shard ring's activity across a sharded run.
type ShardStats struct {
	Shard int
	// VMs is the ring's population at the final round (VMs migrate
	// between shards as the allocation evolves).
	VMs int
	// Hops, Migrations and Proposals accumulate across rounds:
	// Migrations counts intra-shard commits that merged, Proposals the
	// cross-shard candidates handed to reconciliation.
	Hops       int
	Migrations int
	Proposals  int
	// LatencyS accumulates the ring's wall-clock latency (token
	// injection to completion report) across rounds — distributed agent
	// plane only; zero in the in-process sharded mode.
	LatencyS float64
	// Regenerated counts the ring's token re-injections after missed
	// shard deadlines, Recovered the rounds this ring completed despite
	// needing at least one regeneration — distributed agent plane under
	// fault injection only.
	Regenerated int
	Recovered   int
}

// CostRatioSeries converts the cost series into ratios over a reference
// (e.g. the GA-optimal cost), the y-axis of Fig. 3d–i and Fig. 4b.
func (m *Metrics) CostRatioSeries(refCost float64) stats.TimeSeries {
	var out stats.TimeSeries
	if refCost <= 0 {
		return out
	}
	for i := range m.Cost.T {
		out.Append(m.Cost.T[i], m.Cost.V[i]/refCost)
	}
	return out
}

// Reduction returns the fractional cost reduction achieved by the run.
func (m *Metrics) Reduction() float64 {
	if m.InitialCost <= 0 {
		return 0
	}
	return (m.InitialCost - m.FinalCost) / m.InitialCost
}

// Runner executes one S-CORE simulation.
type Runner struct {
	cfg    Config
	eng    *core.Engine
	policy token.Policy
	rng    *rand.Rand

	// now is the run's virtual time in seconds: the due time of the
	// event Runner.run delivers.
	now float64
	net *netsim.Network
	tok *token.Token

	// flight[id-flightBase] is the virtual time at which the VM's modelled
	// pre-copy ends, over the cluster's ID window at the run's start; a hop
	// before then does not re-decide the VM. The window holds every VM the
	// token can reach: nothing registers a VM while Run runs.
	flightBase cluster.VMID
	flight     []float64
	// next is the token's next holder; lost marks a token lost in
	// flight, which the next step regenerates before it hops.
	next cluster.VMID
	lost bool
	// nbrs is lent to the policy as every hop's Neighbors.
	nbrs []token.Entry
	// onLinkRead, set by in-package tests, observes every value linkUtil
	// returns.
	onLinkRead func(h cluster.HostID, util float64)

	ob       *runObs
	metrics  Metrics
	hops     int
	hopsLeft int
	iterMigs int
	numVMs   int
}

// NewRunner assembles a run. The engine's cluster must already hold the
// initial allocation and traffic matrix.
func NewRunner(eng *core.Engine, pol token.Policy, cfg Config, rng *rand.Rand) (*Runner, error) {
	if eng == nil || pol == nil || rng == nil {
		return nil, fmt.Errorf("sim: nil dependency")
	}
	if cfg.DurationS <= 0 || cfg.HopLatencyS <= 0 || cfg.SampleIntervalS <= 0 {
		return nil, fmt.Errorf("sim: duration, hop latency and sample interval must be positive")
	}
	r := newRunner(eng, cfg, rng, netsim.NewNetwork(eng.Topology()))
	r.policy = pol
	return r, nil
}

// newRunner assembles the parts every plane shares; net is the routed
// network the run's final link utilizations are read from.
func newRunner(eng *core.Engine, cfg Config, rng *rand.Rand, net *netsim.Network) *Runner {
	return &Runner{cfg: cfg, eng: eng, rng: rng, net: net, ob: newRunObs(cfg)}
}

// Run executes the simulation and returns its metrics.
func (r *Runner) Run() (*Metrics, error) {
	if r.cfg.DistributedShards > 0 && r.cfg.Shards > 1 {
		return nil, fmt.Errorf("sim: Shards and DistributedShards are mutually exclusive")
	}
	cl := r.eng.Cluster()
	vms := cl.VMs()
	if len(vms) < 2 {
		return nil, fmt.Errorf("sim: need at least 2 VMs, have %d", len(vms))
	}
	r.numVMs = len(vms)
	sharded := r.cfg.DistributedShards > 0 || r.cfg.Shards > 1 || r.cfg.AutoTune
	if _, ok := r.policy.(token.RingOrder); sharded && !ok {
		return nil, fmt.Errorf("sim: sharded rounds walk every ring once in ID order, which policy %q would reorder; run it on the single token (no Shards, DistributedShards or AutoTune)", r.policy.Name())
	}
	switch {
	case r.cfg.DistributedShards > 0:
		return r.runDistributed()
	case sharded:
		return r.runSharded()
	}
	// Optimistic level initialization: unvisited VMs read as hottest so
	// HLF guarantees one visit each before prioritizing (see token.New).
	r.tok = token.NewAtLevel(vms, uint8(r.eng.Topology().Depth()))
	base, alloc := cl.DenseAlloc()
	r.flightBase, r.flight = base, make([]float64, len(alloc))
	r.begin()

	if r.cfg.MaxIterations > 0 {
		r.hopsLeft = r.cfg.MaxIterations * r.numVMs
	} else {
		r.hopsLeft = -1
	}

	// Token starts at the lowest-ID VM ("starting from the VM with
	// lowest ID", Section V-A1).
	r.next = vms[0]
	r.run(r.cfg.HopLatencyS, r.step)

	if len(r.metrics.Iterations)*r.numVMs < r.hops {
		r.finishIteration() // a partial final pass: hops no recorded pass holds
	}
	r.metrics.TokenHops = r.hops
	return r.finish(), nil
}

// begin opens a run on every plane: the initial cost, recorded as the
// first sample and mirrored into the registry.
func (r *Runner) begin() {
	r.metrics.InitialCost = r.eng.TotalCost()
	r.metrics.Cost.Append(0, r.metrics.InitialCost)
	r.ob.sample(r.metrics.InitialCost, r.eng.Traffic())
}

// run drives a discrete plane to the end of its duration on two clocks:
// the sampling tick, first due after one interval, and the plane's next
// event, first due after first seconds. Each turn delivers whichever is
// due first, and stops once that lies past the duration. step runs the
// plane's event at r.now and returns the delay to its next one, or false
// when it has none. Of two due at one time, the one scheduled first runs
// first: the tick at the start, else whichever ran last is the later
// one. That decides whether a sample reads the cost before or after a
// plane event due with it.
func (r *Runner) run(first float64, step func() (delay float64, ok bool)) {
	tick, next, ok := r.cfg.SampleIntervalS, first, true
	tickLater := false // the tick was scheduled after the plane's event
	for {
		if ok && (next < tick || next == tick && tickLater) {
			if next > r.cfg.DurationS {
				return
			}
			r.now = next
			var d float64
			d, ok = step()
			next, tickLater = r.now+d, false
			continue
		}
		if tick > r.cfg.DurationS {
			return
		}
		r.now = tick
		r.appendCost(tick)
		tick, tickLater = tick+r.cfg.SampleIntervalS, true
	}
}

// finish closes a run on every plane: the final cost and the per-level
// link utilizations of Fig. 4a, the one place a run routes its pairs
// over links.
func (r *Runner) finish() *Metrics {
	r.metrics.FinalCost = r.eng.TotalCost()
	r.net.Sync(r.eng.Traffic(), r.eng.Cluster())
	r.metrics.UtilizationByLevel = map[int][]float64{
		1: r.net.UtilizationAtLevel(1),
		2: r.net.UtilizationAtLevel(2),
		3: r.net.UtilizationAtLevel(3),
	}
	return &r.metrics
}

// step is the serial plane's event: it regenerates a lost token, a fresh
// one with its level state lost, at the lowest-ID VM; then it hops. Every
// |V|-th hop closes a pass, whether the token was lost or delivered. It
// returns the delay to the token's next event: the next hop, or the
// regeneration of a token lost in flight; none once the pass budget is
// spent or the policy has no next holder.
func (r *Runner) step() (float64, bool) {
	if r.lost {
		r.lost = false
		vms := r.eng.Cluster().VMs()
		r.tok = token.NewAtLevel(vms, uint8(r.eng.Topology().Depth()))
		r.next = vms[0]
	}
	if r.hopsLeft == 0 {
		return 0, false
	}
	if r.hopsLeft > 0 {
		r.hopsLeft--
	}
	r.hops++
	r.ob.plane.Hops.Inc()
	d, ok := r.hop(r.next)
	if r.hops%r.numVMs == 0 {
		r.finishIteration()
	}
	return d, ok
}

// hop is one hop of the token, held by holder: it may be lost in flight;
// else the holder decides and passes the token on by the policy.
func (r *Runner) hop(holder cluster.VMID) (float64, bool) {
	// Failure injection: the token vanishes in flight and is
	// regenerated after a timeout by the placement manager.
	if r.cfg.TokenLossProb > 0 && r.rng.Float64() < r.cfg.TokenLossProb {
		r.metrics.TokensRegenerated++
		r.ob.plane.Regens.Inc()
		r.lost = true
		return regenTimeoutS, true
	}

	if r.now >= r.flight[holder-r.flightBase] {
		if dec, ok, _ := r.eng.Visit(holder); ok {
			r.startMigration(dec)
		}
	}

	// Pass the token using the holder's local view.
	view := r.holderView(holder)
	next, ok := r.policy.Next(r.tok, view)
	if !ok {
		return 0, false // nothing to pass to
	}
	r.next = next
	return r.cfg.HopLatencyS, true
}

// holderView refills r.nbrs with u's pair levels, in row order: u's host
// is read once, and each peer's level to it comes from the engine's level
// tables (Engine.HostLevel, which is Engine.PairLevel over the hosts).
// ℓ^A(u) is by definition their maximum (Engine.VMLevel), so one walk of
// u's row gives both.
func (r *Runner) holderView(u cluster.VMID) token.HolderView {
	r.nbrs = r.nbrs[:0]
	own := uint8(0)
	cl := r.eng.Cluster()
	hu := cl.HostOf(u)
	for _, ed := range r.eng.Traffic().NeighborEdges(u) {
		l := uint8(r.eng.HostLevel(hu, cl.HostOf(ed.Peer)))
		r.nbrs = append(r.nbrs, token.Entry{ID: ed.Peer, Level: l})
		own = max(own, l)
	}
	return token.HolderView{Holder: u, OwnLevel: own, Neighbors: r.nbrs}
}

// linkUtil is the migration model's background load on h's access link:
// the rate crossing h's NIC (Engine.HostNetLoad) over the link's
// capacity, 0 when the capacity is not positive. Host links occupy IDs
// [0, hosts) in both topology families. It equals the routed load's
// utilization (netsim.Network.HostLinkUtilization) bit for bit — both
// are exact sums of the same pairs' rates — provided every endpoint of
// every pair in the matrix is placed: the engine charges a pair with an
// unplaced endpoint to the placed one's NIC, where no path is routed.
// Every caller in this module places all VMs before the run
// (PlacementManager.PlaceRandom or Place per VM, then traffic generated
// over them), and no plane unplaces one: the planes only Move.
func (r *Runner) linkUtil(h cluster.HostID) float64 {
	u := 0.0
	if links := r.eng.Topology().Links(); int(h) >= 0 && int(h) < len(links) && links[h].CapacityMbps > 0 {
		u = r.eng.HostNetLoad(h) / links[h].CapacityMbps
	}
	if r.onLinkRead != nil {
		r.onLinkRead(h, u)
	}
	return u
}

// startMigration runs the pre-copy model under the current link load and
// executes the allocation change. The move is applied at decision time —
// every subsequent decision then sees consistent state, preserving
// Theorem 1's guarantee that each accepted migration lowers the global
// cost — while the modeled transfer duration (i) is charged to the
// metrics and (ii) sets the time the VM's pre-copy ends, before which no
// hop re-decides it. A hop due at that very time does: every later hop is
// scheduled after this one, so an event ending the pre-copy at that time
// would run before it.
func (r *Runner) startMigration(dec core.Decision) {
	cl := r.eng.Cluster()
	// The model reads the NIC loads as they stand; the read folds what
	// changed since the last one.
	res := migration.Sample(r.rng, max(r.linkUtil(dec.From), r.linkUtil(dec.Target)))

	if err := cl.Move(dec.VM, dec.Target); err != nil {
		r.metrics.AbortedMigrations++
		return
	}
	r.iterMigs++
	r.metrics.TotalMigrations++
	r.ob.plane.Migrations.Inc()
	r.charge(res)

	r.flight[dec.VM-r.flightBase] = r.now + max(res.TotalS, 0)
}

// charge folds one executed migration's modelled bytes, duration and
// downtime into the metrics: the per-migration accounting of every plane.
// Each plane models a move under the worse of its two endpoints'
// access-link utilizations.
func (r *Runner) charge(res migration.Result) {
	r.metrics.TotalMigratedMB += res.MigratedMB
	r.metrics.MigrationTimesS = append(r.metrics.MigrationTimesS, res.TotalS)
	r.metrics.DowntimesMS = append(r.metrics.DowntimesMS, res.DowntimeMS)
}

// finishIteration closes the current token pass for Fig. 2 accounting.
func (r *Runner) finishIteration() {
	idx := len(r.metrics.Iterations)
	r.metrics.Iterations = append(r.metrics.Iterations, IterationStats{
		Index:      idx + 1,
		Migrations: r.iterMigs,
		VMs:        r.numVMs,
		Ratio:      float64(r.iterMigs) / float64(r.numVMs),
	})
	r.iterMigs = 0
}
