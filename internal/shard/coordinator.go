package shard

import (
	"fmt"
	"time"

	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/token"
)

// Tuner supplies a per-round shard count and granularity derived from
// live measurements — the adaptive control plane's hook into both
// schedulers (implemented by control.Controller). Plan is called once
// at the start of every round; when its answer changes, the scheduler
// re-partitions before running the round's rings.
type Tuner interface {
	Plan() (shards int, g Granularity)
}

// Config tunes a sharded token scheduler.
type Config struct {
	// Shards is the number of concurrent token rings (clamped to the
	// number of topology units at the chosen granularity). 1 reproduces
	// the paper's single serial token bit for bit, bandwidth admission
	// included.
	Shards int
	// Granularity aligns shard boundaries to pods (default) or racks.
	Granularity Granularity
	// Tuner, when set, supersedes Shards and Granularity: every round
	// starts by asking it for the current recommendation and
	// re-partitions when the answer changed. Shards/Granularity may then
	// be left zero.
	Tuner Tuner
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// NewPolicy selects nothing: a round's rings are rebuilt from the
	// partition and walked once in ascending ID order, the order every
	// token.RingOrder policy yields on such a pass. NewCoordinator calls
	// NewPolicy(0) once, refuses a policy that would reorder the pass,
	// and never consults it again; nil is accepted.
	NewPolicy func(s int) token.Policy
	// Metrics, when set, receives per-round instrumentation (see
	// NewMetrics); nil leaves every record site an untaken branch.
	Metrics *Metrics
	// Trace, when set, records round/ring/verdict span events.
	Trace *obs.Tracer
	// Audit, when set, receives one decision-provenance record per
	// staged move's merge/reconcile verdict (see obs.AuditRing). Nil
	// leaves every record site an untaken branch and skips the hop
	// bookkeeping entirely.
	Audit *obs.AuditRing
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
	// the subset that survived merge-time re-validation and was
	// applied (Committed - Merged were stale-rejected).
	Committed int
	Merged    int
	// Proposed cross-shard migrations queued for reconciliation.
	Proposed int
}

// Round summarizes one partition → concurrent rings → merge cycle.
type Round struct {
	// Outcome is what the merge phase did: the applied migrations and
	// the stale / cross-shard tallies.
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

// Coordinator drives sharded token rounds against one engine. It owns
// the engine (and its cluster) for the duration of each call: the
// caller must not mutate cluster or traffic state while a round runs.
type Coordinator struct {
	eng  *core.Engine
	cfg  Config
	pool *Pool

	// part is round scratch like the views below: its host→shard table
	// is kept while the shard shape holds, its rings are refilled from
	// the placement table at the start of every round (package doc).
	part *Partition

	// Per-shard round scratch, reused across rounds: decision views and
	// outcomes. Views are reset (not rebuilt) each round, which removes
	// the dominant O(shards · (hosts + |V|)) per-round allocation;
	// entries are extended when the tuner raises the shard count. Reuse
	// is safe because RunRound is sequential and each ring touches only
	// its own index.
	views    []*core.AllocView
	outcomes []*shardOutcome

	// curShards/curGran are the parameters the host→shard table was built
	// with — cfg values for a fixed coordinator, the tuner's latest
	// adopted recommendation otherwise.
	curShards int
	curGran   Granularity

	// round numbers trace events; incremented once per RunRound.
	round uint32

	// merge is the merge phase, bound to the engine and the configured
	// sinks once and reset every round so its scratch is reused.
	merge Merge
}

// NewCoordinator validates the configuration and binds it to an engine.
func NewCoordinator(eng *core.Engine, cfg Config) (*Coordinator, error) {
	if eng == nil {
		return nil, fmt.Errorf("shard: nil engine")
	}
	if cfg.Tuner == nil {
		if cfg.Shards < 1 {
			return nil, fmt.Errorf("shard: shard count %d must be positive", cfg.Shards)
		}
		if cfg.Granularity != ByPod && cfg.Granularity != ByRack {
			return nil, fmt.Errorf("shard: unknown granularity %v", cfg.Granularity)
		}
	}
	if cfg.NewPolicy != nil {
		pol := cfg.NewPolicy(0)
		if _, ok := pol.(token.RingOrder); !ok {
			return nil, fmt.Errorf("shard: a round walks each ring once in ID order, which policy %q would reorder; run it on the single token (sim.Runner without shards)", pol.Name())
		}
	}
	c := &Coordinator{eng: eng, cfg: cfg, pool: NewPool(cfg.Workers), curShards: cfg.Shards, curGran: cfg.Granularity,
		merge: Merge{Env: EngineEnv(eng), Cm: eng.Config().MigrationCost, Audit: cfg.Audit, Trace: cfg.Trace, Metrics: cfg.Metrics}}
	return c, nil
}

// Close drops the round scratch. The coordinator holds nothing outside
// itself, so a caller that is done with it may equally just let it go.
func (c *Coordinator) Close() { c.part, c.views, c.outcomes = nil, nil, nil }

// Rounds returns how many rounds this coordinator has run — the counter
// that tags trace events. SetRounds seeds it, so a coordinator restored
// from a service snapshot numbers its rounds continuously with the run
// it resumes instead of restarting at 1.
func (c *Coordinator) Rounds() uint64 { return uint64(c.round) }

// SetRounds seeds the round counter (see Rounds).
func (c *Coordinator) SetRounds(n uint64) { c.round = uint32(n) }

// partition returns the round's partition: the host→shard table, built
// on first use and again whenever the tuner — consulted once per round,
// here — changes the shard count or granularity, with its rings filled
// from the placement as it stands now.
func (c *Coordinator) partition() (*Partition, error) {
	if c.cfg.Tuner != nil {
		shards, g := c.cfg.Tuner.Plan()
		if shards < 1 {
			shards = 1
		}
		if g != ByPod && g != ByRack {
			g = ByPod
		}
		if shards != c.curShards || g != c.curGran {
			c.curShards, c.curGran = shards, g
			c.part = nil
		}
	}
	cl := c.eng.Cluster()
	if c.part == nil {
		part, err := NewHostPartition(c.eng.Topology(), cl.NumHosts(), c.curGran, c.curShards)
		if err != nil {
			return nil, err
		}
		c.part = part
	}
	c.part.Refill(cl)
	return c.part, nil
}

// shardOutcome is one ring's private result, handed to the merge phase
// in shard order. commitMeta/proposalMeta align with commits/proposals
// and carry the token-visit hop each move was staged at; they are only
// maintained when auditing is on.
type shardOutcome struct {
	stats        ShardRound
	commits      []core.Decision
	proposals    []core.Decision
	commitMeta   []AuditMeta
	proposalMeta []AuditMeta
}

// RunRound executes one full cycle: partition the current allocation,
// run every shard's token ring concurrently against frozen state, then
// hand the rings' staged output to the merge phase in shard order.
func (c *Coordinator) RunRound() (*Round, error) {
	m, tr := c.cfg.Metrics, c.cfg.Trace
	c.round++
	var start time.Time
	if m != nil || tr != nil {
		start = time.Now()
	}
	if tr != nil {
		tr.Record(obs.Event{Kind: obs.EvRoundStart, Round: c.round, Shard: -1})
	}
	part, err := c.partition()
	if err != nil {
		return nil, err
	}
	n := part.Shards()
	// Views are prepared sequentially (a reset primes the engine's
	// shared accounting), then used strictly concurrently. All per-shard
	// state is round scratch reset in place — after the first round at a
	// given shard count, a round allocates no view or outcome storage.
	for len(c.views) < n {
		c.views = append(c.views, nil)
		c.outcomes = append(c.outcomes, new(shardOutcome))
	}
	views := c.views[:n]
	outcomes := c.outcomes[:n]
	for s := 0; s < n; s++ {
		views[s] = c.eng.ResetView(views[s])
	}

	c.pool.Run(n, func(s int) {
		if m != nil {
			t0 := time.Now()
			c.ringPass(s, part, views[s], outcomes[s])
			m.RingPass.Observe(time.Since(t0).Seconds())
			return
		}
		c.ringPass(s, part, views[s], outcomes[s])
	})

	round := &Round{Shards: make([]ShardRound, 0, n), Granularity: c.curGran}
	mg := &c.merge
	mg.Reset(c.round)
	skipped := 0
	for s := 0; s < n; s++ {
		o := outcomes[s]
		round.TotalHops += o.stats.Hops
		skipped += o.stats.Skipped
		if o.stats.Hops > round.RingHops {
			round.RingHops = o.stats.Hops
		}
		if tr != nil {
			tr.Record(obs.Event{Kind: obs.EvRingDone, Round: c.round, Shard: int16(s), Arg: int64(o.stats.Hops)})
		}
		o.stats.Merged = mg.Shard(s, o.commits, o.commitMeta)
		mg.Propose(o.proposals, o.proposalMeta)
		round.Shards = append(round.Shards, o.stats)
	}
	mg.Cross()
	round.Outcome = mg.Outcome
	mg.Finish(start, n, round.TotalHops, skipped)
	return round, nil
}

// ringPass runs one shard's token ring to completion: every shard VM is
// visited once, in ascending ID order (one pass, |V_s| hops — the
// Section V-A loop scoped to one shard), and decisions are staged in the
// shard's view. The ring is the partition's own VM list: a token built
// for this pass alone would start at level = depth everywhere and be
// thrown away after it, so no forwarding policy has anything to order
// the pass by (token.RingOrder). The outcome o is round scratch reset in
// place; its proposal storage is reused across rounds.
func (c *Coordinator) ringPass(s int, part *Partition, view *core.AllocView, o *shardOutcome) {
	vms := part.VMs(s)
	o.stats = ShardRound{Shard: s, VMs: len(vms), Hops: len(vms)}
	o.proposals = o.proposals[:0]
	o.commitMeta = o.commitMeta[:0]
	o.proposalMeta = o.proposalMeta[:0]
	auditing := c.cfg.Audit != nil
	for hop, holder := range vms {
		dec, ok, skipped := view.Visit(holder)
		if skipped {
			o.stats.Skipped++
		}
		if !ok {
			continue
		}
		if part.ShardOfHost(dec.Target) == s {
			// Hop alignment uses the view's commit list, not the
			// error: a self-move "succeeds" without staging anything.
			nStaged := len(view.Commits())
			if _, err := view.Commit(dec); err == nil {
				o.stats.Committed++
			}
			if auditing && len(view.Commits()) > nStaged {
				o.commitMeta = append(o.commitMeta, AuditMeta{Hop: int32(hop), Shard: int16(s)})
			}
		} else {
			o.proposals = append(o.proposals, dec)
			o.stats.Proposed++
			if auditing {
				o.proposalMeta = append(o.proposalMeta, AuditMeta{Hop: int32(hop), Shard: int16(s)})
			}
		}
	}
	o.commits = view.Commits()
}
