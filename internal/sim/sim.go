// Package sim orchestrates full S-CORE and Remedy runs over the
// discrete-event engine, producing the time series and distributions
// behind Figs. 2, 3 and 4.
//
// A run circulates the migration token among VMs: each hop, the holding
// VM's hypervisor evaluates the S-CORE migration policy (Theorem 1) from
// local information, optionally starts a live migration (whose duration
// and downtime come from the pre-copy model under the current link
// load), and passes the token on according to the configured policy.
// Global communication cost is sampled on a fixed tick.
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
	// Model and Workloads drive per-migration duration, downtime and
	// bytes.
	Model     migration.Model
	Workloads migration.WorkloadDist
	// TokenLossProb injects token loss per hop. In the single-token
	// discrete-event run a lost token is regenerated (with reset level
	// state) at the lowest-ID VM after RegenTimeoutS. In the
	// distributed agent plane (DistributedShards > 0) the loss is
	// injected by a seeded hypervisor.FaultPlan dropping MsgShardToken
	// hops on the wire, and recovery is the reconciler's own: the
	// affected ring regenerates from the reconciler's acked copy on the
	// per-shard deadline, with staged moves intact. This exercises the
	// recovery path a deployment needs even though the paper assumes a
	// reliable token. In-process sharded rounds (Shards > 1) have no
	// wire to lose tokens on and ignore it.
	TokenLossProb float64
	RegenTimeoutS float64
	// DistributedDeadlineS overrides the reconciler's per-shard
	// progress deadline (real seconds — the agent plane runs in wall
	// clock, not simulated time); 0 keeps the reconciler default.
	// Only meaningful with DistributedShards > 0.
	DistributedDeadlineS float64
	// Shards > 1 selects the sharded concurrent mode (internal/shard):
	// instead of one circulating token, each round runs an independent
	// token ring per topology-aligned shard concurrently and merges the
	// results through a deterministic reconciliation pass. 0 or 1 keeps
	// the paper's single-token discrete-event run. Token-loss injection
	// does not apply to sharded rounds. Every sharded mode (this one,
	// DistributedShards, AutoTune) walks its rings in ID order and
	// accepts only a token.RingOrder policy; the others need the single
	// token's history and are refused.
	Shards int
	// ShardGranularity aligns shard boundaries to pods (default) or
	// racks; ShardWorkers bounds the worker pool (0 = GOMAXPROCS).
	ShardGranularity shard.Granularity
	ShardWorkers     int
	// DistributedShards > 0 drives the run through the distributed dom0
	// agent plane (internal/hypervisor) instead of the in-process
	// engine: one agent per host over an in-memory transport, one token
	// ring per topology-aligned shard coordinated by a reconciliation
	// agent, and every committed move mirrored into the engine's
	// cluster for cost sampling. 1 reproduces the global agent ring
	// bit for bit; it is mutually exclusive with Shards > 1.
	// ShardGranularity applies.
	// Admission follows the paper's dom0 protocol — slots and RAM only:
	// the engine's BandwidthThreshold is not enforced by the agents,
	// and clusters with CPU admission (Host.CPUMilli > 0) are rejected.
	DistributedShards int
	// AutoTune enables the adaptive control plane (internal/control): a
	// controller folds the live traffic matrix into locality sums and
	// pod-pair rates and supersedes the fixed shard knobs, re-deriving
	// shard count and granularity every round. With DistributedShards > 0 the
	// distributed agent plane is auto-tuned (the flag's magnitude only
	// selects the plane); otherwise the in-process sharded mode runs
	// auto-tuned, regardless of Shards.
	AutoTune bool
	// AdaptiveDeadline (distributed plane only) derives per-shard
	// recovery deadlines from observed per-hop ack latency
	// (EWMA + k·stddev) instead of the fixed DistributedDeadlineS,
	// which remains the warm-up fallback.
	AdaptiveDeadline bool
	// TokenDelayProb delays that fraction of shard-token hops by
	// TokenDelayS real seconds on the wire (distributed plane only) —
	// the load-jitter injection the adaptive deadline is evaluated
	// against. Composes with TokenLossProb through the same seeded
	// fault plan.
	TokenDelayProb float64
	TokenDelayS    float64
	// DistributedEvictAttempts overrides how many consecutive
	// no-progress regenerations evict a holder's host (0 keeps the
	// reconciler default). Delay-injection experiments raise it so
	// slow-but-alive hosts are never evicted while the deadline policy
	// is what is under test.
	DistributedEvictAttempts int
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
		Model:           migration.DefaultModel(),
		Workloads:       migration.PaperWorkloadDist(),
		RegenTimeoutS:   10,
	}
}

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

	des *netsim.Engine
	net *netsim.Network
	tok *token.Token

	migrating map[cluster.VMID]bool
	// levels is lent to the policy as every hop's NeighborLevels.
	levels map[cluster.VMID]uint8

	ob       *runObs
	metrics  Metrics
	hops     int
	hopsLeft int
	iterMigs int
	numVMs   int
	stopped  bool
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
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	r := &Runner{
		cfg: cfg, eng: eng, policy: pol, rng: rng,
		des:       netsim.NewEngine(),
		net:       netsim.NewNetwork(eng.Topology()),
		migrating: make(map[cluster.VMID]bool),
		levels:    make(map[cluster.VMID]uint8),
		ob:        newRunObs(cfg),
	}
	return r, nil
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
	r.metrics.InitialCost = r.eng.TotalCost()
	r.metrics.Cost.Append(0, r.metrics.InitialCost)
	r.ob.sample(r.metrics.InitialCost, r.eng.Traffic())
	r.net.Recompute(r.eng.Traffic(), cl)

	if r.cfg.MaxIterations > 0 {
		r.hopsLeft = r.cfg.MaxIterations * r.numVMs
	} else {
		r.hopsLeft = -1
	}

	// Cost sampling tick. Link loads are maintained incrementally
	// (ShiftPair per migration, Sync folding any traffic-matrix
	// changelog), so the tick no longer pays a full-pair Recompute.
	var sample func()
	sample = func() {
		r.net.Sync(r.eng.Traffic(), cl)
		r.appendCost(r.des.Now())
		if r.des.Now()+r.cfg.SampleIntervalS <= r.cfg.DurationS {
			r.des.After(r.cfg.SampleIntervalS, sample)
		}
	}
	r.des.After(r.cfg.SampleIntervalS, sample)

	// Token starts at the lowest-ID VM ("starting from the VM with
	// lowest ID", Section V-A1).
	r.des.After(r.cfg.HopLatencyS, func() { r.hop(vms[0]) })
	r.des.RunUntil(r.cfg.DurationS)

	r.finishIteration() // flush a partial final pass
	r.metrics.TokenHops = r.hops
	r.metrics.FinalCost = r.eng.TotalCost()
	r.finishUtilization(cl)
	return &r.metrics, nil
}

// hop processes the token at holder and forwards it.
func (r *Runner) hop(holder cluster.VMID) {
	if r.stopped {
		return
	}
	if r.hopsLeft == 0 {
		r.stopped = true
		return
	}
	if r.hopsLeft > 0 {
		r.hopsLeft--
	}
	r.hops++
	r.ob.plane.Hops.Inc()

	// Failure injection: the token vanishes in flight and is
	// regenerated after a timeout by the placement manager.
	if r.cfg.TokenLossProb > 0 && r.rng.Float64() < r.cfg.TokenLossProb {
		r.metrics.TokensRegenerated++
		r.ob.plane.Regens.Inc()
		r.des.After(r.cfg.RegenTimeoutS, func() {
			if r.stopped {
				return
			}
			vms := r.eng.Cluster().VMs()
			r.tok = token.NewAtLevel(vms, uint8(r.eng.Topology().Depth())) // fresh token, level state lost
			r.hop(vms[0])
		})
		return
	}

	if !r.migrating[holder] {
		if dec, ok, _ := r.eng.Visit(holder); ok {
			r.startMigration(dec)
		}
	}

	// Pass the token using the holder's local view.
	view := r.holderView(holder)
	next, ok := r.policy.Next(r.tok, view)
	if !ok {
		return // nothing to pass to
	}
	if r.hops%r.numVMs == 0 {
		r.finishIteration()
	}
	r.des.After(r.cfg.HopLatencyS, func() { r.hop(next) })
}

// holderView refills r.levels with u's pair levels. ℓ^A(u) is by
// definition their maximum (Engine.VMLevel), so one walk of u's row gives
// both.
func (r *Runner) holderView(u cluster.VMID) token.HolderView {
	clear(r.levels)
	own := uint8(0)
	for _, ed := range r.eng.Traffic().NeighborEdges(u) {
		l := uint8(r.eng.PairLevel(u, ed.Peer))
		r.levels[ed.Peer] = l
		own = max(own, l)
	}
	return token.HolderView{Holder: u, OwnLevel: own, NeighborLevels: r.levels}
}

// startMigration runs the pre-copy model under the current link load and
// executes the allocation change. The move is applied at decision time —
// every subsequent decision then sees consistent state, preserving
// Theorem 1's guarantee that each accepted migration lowers the global
// cost — while the modeled transfer duration (i) is charged to the
// metrics and (ii) keeps the VM marked in-flight so it is not re-decided
// until its pre-copy would have finished.
func (r *Runner) startMigration(dec core.Decision) {
	cl := r.eng.Cluster()
	// Drain any pending rate changes over the pre-move allocation before
	// the move's ShiftPairs rewrite the affected paths.
	r.net.Sync(r.eng.Traffic(), cl)
	bg := r.net.HostLinkUtilization(dec.From)
	if t := r.net.HostLinkUtilization(dec.Target); t > bg {
		bg = t
	}
	res := r.cfg.Model.Migrate(r.cfg.Workloads.Draw(r.rng), bg)

	from := cl.HostOf(dec.VM)
	if err := cl.Move(dec.VM, dec.Target); err != nil {
		r.metrics.AbortedMigrations++
		return
	}
	r.shiftFlows(dec.VM, from, dec.Target, cl.HostOf)
	r.iterMigs++
	r.metrics.TotalMigrations++
	r.ob.plane.Migrations.Inc()
	r.metrics.TotalMigratedMB += res.MigratedMB
	r.metrics.MigrationTimesS = append(r.metrics.MigrationTimesS, res.TotalS)
	r.metrics.DowntimesMS = append(r.metrics.DowntimesMS, res.DowntimeMS)

	r.migrating[dec.VM] = true
	r.des.After(res.TotalS, func() { delete(r.migrating, dec.VM) })
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
