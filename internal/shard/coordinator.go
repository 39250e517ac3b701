package shard

import (
	"fmt"
	"math/bits"
	"time"

	"github.com/score-dc/score/internal/cluster"
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
	pl := &enginePlane{eng: eng, pool: NewPool(0), metrics: cfg.Metrics, auditing: cfg.Audit != nil}
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

// Run brings the partition's ring bitmaps up to the cluster's placement
// table and prepares the views sequentially (a reset primes the engine's
// shared accounting; both patch from the cluster's changelog where they
// can), then runs the rings strictly concurrently.
func (e *enginePlane) Run(_ *Round, part *Partition, mg *Merge) ([]Ring, error) {
	part.addPlaced(e.eng.Cluster())
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
// shard's view. The ring is the partition's own bitmap, walked word by
// word: a token built for this pass alone would start at level = depth
// everywhere and be thrown away after it, so no forwarding policy has
// anything to order the pass by (token.RingOrder). A hop whose holder the
// view reports settled (AllocView.Unsettled) is one Visit would skip at
// its first test, so the pass counts it skipped without calling Visit;
// the word is read again after every visit, whose commit may have marked
// a later holder near. The output o is round scratch: its storage is
// reused across rounds, and the pass works on locals, off the cache
// lines the neighbouring rings' outputs share, until it ends.
func (e *enginePlane) ringPass(s int, part *Partition, view *core.AllocView, o *Ring) {
	base := part.base
	st := ShardRound{Shard: s}
	props, commitMeta, propMeta := o.Proposals[:0], o.CommitMeta[:0], o.ProposalMeta[:0]
	// hops counts the ring's holders below the current word, visits the
	// holders Visit was called for.
	hops, visits := 0, 0
	for w, members := range part.rings[s] {
		if members == 0 {
			continue
		}
		for rest := members; ; {
			todo := rest & view.Unsettled(base, w)
			if todo == 0 {
				break
			}
			b := bits.TrailingZeros64(todo)
			rest &^= uint64(2)<<b - 1
			visits++
			dec, ok, skipped := view.Visit(base + cluster.VMID(64*w+b))
			if skipped {
				st.Skipped++
			}
			if !ok {
				continue
			}
			var meta AuditMeta
			if e.auditing {
				meta = AuditMeta{Hop: int32(hops + bits.OnesCount64(members&(uint64(1)<<b-1))), Shard: int16(s)}
			}
			if part.ShardOfHost(dec.Target) == s {
				// Hop alignment uses the view's commit list, not the
				// error: a self-move "succeeds" without staging anything.
				nStaged := len(view.Commits())
				if _, err := view.Commit(dec); err == nil {
					st.Committed++
				}
				if e.auditing && len(view.Commits()) > nStaged {
					commitMeta = append(commitMeta, meta)
				}
			} else {
				props = append(props, dec)
				st.Proposed++
				if e.auditing {
					propMeta = append(propMeta, meta)
				}
			}
		}
		hops += bits.OnesCount64(members)
	}
	st.VMs, st.Hops = hops, hops
	st.Skipped += hops - visits
	*o = Ring{ShardRound: st, Commits: view.Commits(), Proposals: props,
		CommitMeta: commitMeta, ProposalMeta: propMeta, traceDone: true}
}
