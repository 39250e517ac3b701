package shard

import (
	"fmt"
	"time"

	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/token"
)

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

// Coordinator drives sharded token rounds against one engine: the round
// Driver over the in-process plane. It owns the engine (and its cluster)
// for the duration of each call: the caller must not mutate cluster or
// traffic state while a round runs.
type Coordinator struct {
	*Driver
	plane *enginePlane
}

// NewCoordinator validates the configuration and binds it to an engine.
func NewCoordinator(eng *core.Engine, cfg Config) (*Coordinator, error) {
	if eng == nil {
		return nil, fmt.Errorf("shard: nil engine")
	}
	if cfg.NewPolicy != nil {
		pol := cfg.NewPolicy(0)
		if _, ok := pol.(token.RingOrder); !ok {
			return nil, fmt.Errorf("shard: a round walks each ring once in ID order, which policy %q would reorder; run it on the single token (sim.Runner without shards)", pol.Name())
		}
	}
	pl := &enginePlane{eng: eng, pool: NewPool(cfg.Workers), metrics: cfg.Metrics, auditing: cfg.Audit != nil}
	d, err := NewDriver(eng.Topology(), cfg, eng.Config().MigrationCost, pl)
	if err != nil {
		return nil, err
	}
	return &Coordinator{Driver: d, plane: pl}, nil
}

// Close drops the round scratch. The coordinator holds nothing outside
// itself, so a caller that is done with it may equally just let it go.
func (c *Coordinator) Close() { c.part, c.plane.views, c.plane.rings = nil, nil, nil }

// enginePlane is the in-process plane: the engine's cluster is its
// placement, and its rings run as views on the worker pool.
type enginePlane struct {
	eng      *core.Engine
	pool     *Pool
	metrics  *Metrics
	auditing bool

	// Per-shard round scratch: views are reset, not rebuilt, each round
	// (that removes the dominant O(shards · (hosts + |V|)) allocation),
	// and extended when the tuner raises the shard count. Rounds are
	// sequential and each ring touches only its own index.
	views []*core.AllocView
	rings []Ring
}

func (e *enginePlane) Hosts() (int, error) { return e.eng.Cluster().NumHosts(), nil }

func (e *enginePlane) Fill(p *Partition) { p.addPlaced(e.eng.Cluster()) }

// Run prepares the views sequentially (a reset primes the engine's
// shared accounting), then runs the rings strictly concurrently.
func (e *enginePlane) Run(_ *Round, part *Partition, mg *Merge) ([]Ring, error) {
	mg.Env = EngineEnv(e.eng)
	n := part.Shards()
	for len(e.views) < n {
		e.views = append(e.views, nil)
		e.rings = append(e.rings, Ring{})
	}
	views, rings := e.views[:n], e.rings[:n]
	for s := range views {
		views[s] = e.eng.ResetView(views[s])
	}
	e.pool.Run(n, func(s int) {
		if m := e.metrics; m != nil {
			t0 := time.Now()
			e.ringPass(s, part, views[s], &rings[s])
			m.RingPass.Observe(time.Since(t0).Seconds())
			return
		}
		e.ringPass(s, part, views[s], &rings[s])
	})
	return rings, nil
}

// ringPass runs one shard's token ring to completion: every shard VM is
// visited once, in ascending ID order (one pass, |V_s| hops — the
// Section V-A loop scoped to one shard), and decisions are staged in the
// shard's view. The ring is the partition's own VM list: a token built
// for this pass alone would start at level = depth everywhere and be
// thrown away after it, so no forwarding policy has anything to order
// the pass by (token.RingOrder). The output o is round scratch: its
// storage is reused across rounds, and the pass works on locals, off the
// cache lines the neighbouring rings' outputs share, until it ends.
func (e *enginePlane) ringPass(s int, part *Partition, view *core.AllocView, o *Ring) {
	vms := part.VMs(s)
	st := ShardRound{Shard: s, VMs: len(vms), Hops: len(vms)}
	props, commitMeta, propMeta := o.Proposals[:0], o.CommitMeta[:0], o.ProposalMeta[:0]
	for hop, holder := range vms {
		dec, ok, skipped := view.Visit(holder)
		if skipped {
			st.Skipped++
		}
		if !ok {
			continue
		}
		if part.ShardOfHost(dec.Target) == s {
			// Hop alignment uses the view's commit list, not the
			// error: a self-move "succeeds" without staging anything.
			nStaged := len(view.Commits())
			if _, err := view.Commit(dec); err == nil {
				st.Committed++
			}
			if e.auditing && len(view.Commits()) > nStaged {
				commitMeta = append(commitMeta, AuditMeta{Hop: int32(hop), Shard: int16(s)})
			}
		} else {
			props = append(props, dec)
			st.Proposed++
			if e.auditing {
				propMeta = append(propMeta, AuditMeta{Hop: int32(hop), Shard: int16(s)})
			}
		}
	}
	*o = Ring{ShardRound: st, Commits: view.Commits(), Proposals: props,
		CommitMeta: commitMeta, ProposalMeta: propMeta, traceDone: true}
}
