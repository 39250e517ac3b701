package shard

import (
	"fmt"
	"slices"
	"time"

	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/topology"
)

// Tuner supplies a per-round shard count and granularity derived from
// live measurements — the adaptive control plane's hook into both
// schedulers (implemented by control.Controller). Plan is called once
// at the start of every round; when its answer changes, the driver
// re-partitions before running the round's rings. On the in-process
// plane Plan runs beside the engine's changelog fold (core.Engine.Sync),
// so it may read the cluster and the traffic matrix but not use the
// engine.
type Tuner interface {
	Plan() (shards int, g Granularity)
}

// ShardRound reports one shard ring's activity within a round.
type ShardRound struct {
	Shard int
	// VMs is the ring's population this round.
	VMs int
	// Hops is the number of token hops the ring performed; Skipped is
	// the subset whose holder was not re-evaluated because nothing its
	// last no-move verdict depends on had changed (core.AllocView.Visit).
	Hops    int
	Skipped int
	// Committed intra-shard migrations staged by the ring; Merged is
	// the subset that passed the merge's check and was applied
	// (Committed - Merged were stale-rejected).
	Committed int
	Merged    int
	// Proposed cross-shard migrations queued for reconciliation.
	Proposed int
}

// Round summarizes one partition → concurrent rings → merge cycle. A
// Round is the caller's to keep, with one exception: its Applied list
// (Outcome) is lent by the Driver's Merge and is valid until the next
// RunRound, which reuses its storage. A caller that reads the moves after
// that copies the list first; the counts and Shards stay its own.
type Round struct {
	// Number is the round's sequence number, the one its trace events and
	// audit records carry.
	Number uint32
	// Outcome is what the merge phase did: the applied migrations (a
	// lent list, see above) and the stale / cross-shard tallies.
	Outcome
	// Shards holds per-ring statistics.
	Shards []ShardRound
	// RingHops is the longest ring's hop count — the round's wall-clock
	// extent when rings run concurrently. TotalHops sums all rings.
	RingHops, TotalHops int
	// Granularity is the shard alignment this round ran with — the
	// tuner's choice under auto-tuning, the fixed configuration
	// otherwise. len(Shards) is the effective ring count.
	Granularity Granularity
}

// A Plane is what differs between the scheduler planes (package doc):
// the host count the host→shard table covers, and how the rings run. Run
// builds each shard's ring from the plane's own placement and the
// partition's host→shard table, and returns one Ring per shard, in shard
// order; it sets mg.Env, the state the merge re-validates against, and
// may Withdraw moves the merge must not replay.
type Plane interface {
	Hosts() (int, error)
	Run(r *Round, p *Partition, mg *Merge) ([]Ring, error)
}

// Ring is one ring's output: its statistics (the Driver sets Merged),
// its staged intra-shard commits and cross-shard proposals, the
// provenance aligned with each, and the marks its commits left (zero on a
// plane that supplies none).
type Ring struct {
	ShardRound
	Commits, Proposals       []core.Decision
	CommitMeta, ProposalMeta []AuditMeta
	Near                     Marks
	// traceDone has the Driver trace the ring's EvRingDone as the merge
	// reaches it, in shard order: in-process rings finish inside the
	// pool, where nothing traces them. The agent plane traces each report on arrival.
	traceDone bool
}

// Driver runs the round both scheduler planes share (package doc). Its
// Merge is bound to the configured sinks; after a round, Merge.Rejected
// lists the re-validated moves that did not land. RunRound must not be
// called concurrently.
type Driver struct {
	Merge Merge

	plane Plane
	topo  topology.Topology
	cfg   Config

	// part's host→shard table is kept while the shard shape (count,
	// granularity, host count) holds, and reshaped in place when it
	// changes.
	part      *Partition
	curShards int
	curGran   Granularity
	curHosts  int

	// round numbers trace events; incremented once per RunRound.
	round uint32

	// pool runs a round's two overlaps on a helper: the plane's fold
	// beside the plan, the proposals' sort beside the staged replay; nil
	// (the agent plane) runs both inline. fold is the plane's changelog
	// fold, nil when it has none. foldTask and sortTask are bound once,
	// so handing them to the pool allocates nothing.
	pool               *Pool
	fold               func()
	foldTask, sortTask func()
}

// NewDriver validates cfg's shard shape — Shards and Granularity, unless
// a Tuner supersedes them — and binds it, cfg's sinks and Theorem 1's cm
// to plane over topo.
func NewDriver(topo topology.Topology, cfg Config, cm float64, plane Plane) (*Driver, error) {
	if cfg.Tuner == nil {
		if cfg.Shards < 1 {
			return nil, fmt.Errorf("shard: shard count %d must be positive", cfg.Shards)
		}
		if cfg.Granularity != ByPod && cfg.Granularity != ByRack {
			return nil, fmt.Errorf("shard: unknown granularity %v", cfg.Granularity)
		}
	}
	d := &Driver{plane: plane, topo: topo, cfg: cfg,
		Merge: Merge{Cm: cm, Audit: cfg.Audit, Trace: cfg.Trace, Metrics: cfg.Metrics}}
	d.foldTask, d.sortTask = d.foldPlane, d.Merge.order
	return d, nil
}

// foldPlane runs the plane's changelog fold, timed on the phase clock
// where it runs.
func (d *Driver) foldPlane() {
	if mt := d.Merge.Metrics; mt != nil {
		t0 := time.Now()
		d.fold()
		mt.PhaseFold.Observe(time.Since(t0).Seconds())
		return
	}
	d.fold()
}

// Rounds returns how many rounds this driver has run — the counter that
// tags trace events. SetRounds seeds it, so a scheduler restored from a
// service snapshot numbers its rounds continuously with the run it
// resumes instead of restarting at 1.
func (d *Driver) Rounds() uint64 { return uint64(d.round) }

// SetRounds seeds the round counter (see Rounds).
func (d *Driver) SetRounds(n uint64) { d.round = uint32(n) }

// partition returns the round's partition: the host→shard table, built
// on first use and again, in the same storage, whenever the shape — the
// tuner's answer, consulted once per round here, or the plane's host
// count — changes.
func (d *Driver) partition() (*Partition, error) {
	hosts, err := d.plane.Hosts()
	if err != nil {
		return nil, err
	}
	shards, g := d.cfg.Shards, d.cfg.Granularity
	if d.cfg.Tuner != nil {
		shards, g = d.cfg.Tuner.Plan()
		if shards < 1 {
			shards = 1
		}
		if g != ByPod && g != ByRack {
			g = ByPod
		}
	}
	if d.part == nil || shards != d.curShards || g != d.curGran || hosts != d.curHosts {
		if d.part == nil {
			d.part = &Partition{}
		}
		if err := d.part.reshape(d.topo, hosts, g, shards); err != nil {
			return nil, err
		}
		d.curShards, d.curGran, d.curHosts = shards, g, hosts
	}
	return d.part, nil
}

// RunRound executes one full cycle: partition the plane's current
// placement, have the plane run every shard's ring against frozen state,
// then hand the rings' staged output to the merge phase in shard order.
// The returned Round's Applied list is valid until the next RunRound.
// With Metrics attached, the phase clock times the plan, the preparation
// of the rings, the rings, the merge and the cross-shard pass, and, where
// it runs, the plane's fold.
//
// Two pieces of serial work run on a pool helper while the caller does
// the rest. At the round's start the plane's changelog fold runs beside
// the tuner's plan and the partition: the fold writes only the engine's
// accounting and visit memo, the plan only the controller's summary and
// the partition, and both only read the cluster and the traffic matrix.
// Once the rings are done every ring's proposals are queued first, and
// the queue is sorted into the canonical order beside the replay of the
// staged commits: the sort touches only the queue, the replay the engine,
// the cluster and the merge's lists. Cross then replays the sorted queue.
// Without a pool (the agent plane) each runs inline, before the work it
// would overlap; either way every decision, record and sum is the same.
func (d *Driver) RunRound() (*Round, error) {
	mg := &d.Merge
	d.round++
	var start time.Time
	if mg.Metrics != nil || mg.Trace != nil {
		start = time.Now()
	}
	if mg.Trace != nil {
		mg.Trace.Record(obs.Event{Kind: obs.EvRoundStart, Round: d.round, Shard: -1})
	}
	var fold side
	if d.fold != nil {
		fold = d.pool.start(d.foldTask)
	}
	part, err := d.partition()
	fold.wait()
	if err != nil {
		return nil, err
	}
	var planned time.Time
	if mg.Metrics != nil {
		planned = time.Now()
	}
	n := part.Shards()
	round := &Round{Number: d.round, Shards: make([]ShardRound, 0, n), Granularity: d.curGran}
	mg.Reset(d.round)
	rings, err := d.plane.Run(round, part, mg)
	if err != nil {
		return nil, err
	}
	var phase time.Time // when the phase in progress began
	if mt := mg.Metrics; mt != nil {
		patched, prepared := mg.patched, mg.prepared
		if prepared.IsZero() {
			prepared = planned
		}
		if patched.IsZero() {
			patched = prepared
		}
		mt.PhasePlan.Observe(planned.Sub(start).Seconds())
		mt.PhasePatch.Observe(patched.Sub(planned).Seconds())
		mt.PhaseReset.Observe(prepared.Sub(patched).Seconds())
		phase = lap(mt.PhaseRings, prepared)
	}
	decisions, proposals, metas := 0, 0, 0
	for s := range rings {
		decisions += len(rings[s].Commits) + len(rings[s].Proposals)
		proposals += len(rings[s].Proposals)
		metas += len(rings[s].ProposalMeta)
	}
	mg.reserve(decisions, proposals, metas)
	for s := range rings {
		mg.Propose(rings[s].Proposals, rings[s].ProposalMeta)
	}
	sorted := d.pool.start(d.sortTask)
	skipped := 0
	for s := range rings {
		o := &rings[s]
		round.TotalHops += o.Hops
		skipped += o.Skipped
		if o.Hops > round.RingHops {
			round.RingHops = o.Hops
		}
		if o.traceDone && mg.Trace != nil {
			mg.Trace.Record(obs.Event{Kind: obs.EvRingDone, Round: d.round, Shard: int16(s), Arg: int64(o.Hops)})
		}
		o.Merged = mg.Shard(s, o.Commits, o.CommitMeta, o.Near)
		round.Shards = append(round.Shards, o.ShardRound)
	}
	sorted.wait()
	if mt := mg.Metrics; mt != nil {
		phase = lap(mt.PhaseMerge, phase)
	}
	mg.Cross()
	if mt := mg.Metrics; mt != nil {
		lap(mt.PhaseCross, phase)
	}
	round.Outcome = mg.Outcome
	round.Applied = slices.Clip(mg.Applied) // the rejections lie past it
	mg.Finish(start, n, round.TotalHops, skipped)
	return round, nil
}
