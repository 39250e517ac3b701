package shard

import (
	"fmt"
	"math/bits"
	"slices"
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
	d.pool, d.fold = pl.pool, eng.Sync
	return &Coordinator{Driver: d, plane: pl}, nil
}

// Close stops the worker pool's helpers and drops the round scratch. A
// coordinator that is dropped without Close stops its helpers once the
// garbage collector finds it unreachable (Pool); Close does it now.
func (c *Coordinator) Close() {
	c.plane.pool.Close()
	c.part, c.plane.views, c.plane.rings = nil, nil, nil
	c.plane.arena, c.plane.off, c.plane.blocks = nil, nil, core.StageBlocks{}
}

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

	// The round's decisions live in one arena sized to the placed VMs
	// (carve), whatever the shape: ring s owns arena[off[s]:off[s+1]], as
	// many entries as it has VMs. The views stage the positions their
	// commits reach into blocks, shared by all of them.
	arena  []core.Decision
	off    []int
	blocks core.StageBlocks
}

func (e *enginePlane) Hosts() (int, error) { return e.eng.Cluster().NumHosts(), nil }

// Run brings the partition's ring bitmaps up to the cluster's placement
// table and prepares the views sequentially (a reset primes the engine's
// shared accounting, which the Driver's fold has brought up to date; both
// patch from the cluster's changelog where they can), then runs the rings
// strictly concurrently.
func (e *enginePlane) Run(_ *Round, part *Partition, mg *Merge) ([]Ring, error) {
	part.addPlaced(e.eng.Cluster())
	mg.Env = EngineEnv(e.eng)
	n := part.Shards()
	for len(e.views) < n {
		e.views = append(e.views, nil)
		e.rings = append(e.rings, Ring{})
	}
	views, rings := e.views[:n], e.rings[:n]
	e.carve(part)
	mg.patch()
	for s := range views {
		views[s] = e.eng.ResetView(views[s])
	}
	mg.Prepared()
	e.pool.Run(n, func(s int) {
		if m := e.metrics; m != nil {
			t0 := time.Now()
			e.ringPass(s, part, views[s], e.segment(s), &rings[s])
			m.RingPass.Observe(time.Since(t0).Seconds())
			return
		}
		e.ringPass(s, part, views[s], e.segment(s), &rings[s])
	})
	// What the views staged is read no more: the next round's views may
	// take every block again.
	e.blocks.Reset()
	return rings, nil
}

// carve lays the round's rings out in the arena: ring s's segment holds
// as many decisions as the VMs on its shard's hosts, counted from the
// cluster's hosts in one pass, which equals the ring's population once
// addPlaced has run. The arena grows only when the placed VMs outgrow it,
// by append's amortized step, so a population that creeps up round by
// round does not reallocate it every round.
func (e *enginePlane) carve(part *Partition) {
	cl, n := e.eng.Cluster(), part.Shards()
	e.off = slices.Grow(e.off[:0], n+1)[:n+1]
	clear(e.off)
	for h := cluster.HostID(0); int(h) < cl.NumHosts(); h++ {
		e.off[part.ShardOfHost(h)+1] += cl.UsedSlots(h)
	}
	for s := 0; s < n; s++ {
		e.off[s+1] += e.off[s]
	}
	placed := e.off[n]
	e.arena = slices.Grow(e.arena[:0], placed)[:placed]
}

// segment is ring s's share of the arena, capped so that nothing
// appended to it reaches the next ring's.
func (e *enginePlane) segment(s int) []core.Decision {
	lo, hi := e.off[s], e.off[s+1]
	return e.arena[lo:hi:hi]
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
// a later holder near.
//
// The ring's decisions go to seg, its segment of the round's arena, one
// entry per ring VM: the view stages its commits from the front
// (StageInto, with the plane's shared blocks for the positions they
// reach) and the pass writes its proposals from the back, newest first
// (Cross puts every ring's in the canonical order). A VM is decided at
// most once a pass, so the two ends never meet and nothing is appended
// past the segment. Their provenance, kept only when auditing, is
// appended to o's lists, whose storage is reused across rounds. The
// output o is round scratch, written once when the pass ends.
func (e *enginePlane) ringPass(s int, part *Partition, view *core.AllocView, seg []core.Decision, o *Ring) {
	base := part.base
	st := ShardRound{Shard: s}
	view.StageInto(seg, &e.blocks)
	commitMeta, propMeta := o.CommitMeta[:0], o.ProposalMeta[:0]
	// Proposals fill seg[back:], newest first. hops counts the ring's
	// holders below the current word, visits the holders Visit was
	// called for; decided counts the decisions and last is the latest
	// one's VM, both kept only under checkArena.
	back, hops, visits := len(seg), 0, 0
	decided, last := 0, cluster.VMID(0)
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
				back--
				seg[back] = dec
				st.Proposed++
				if e.auditing {
					propMeta = append(propMeta, meta)
				}
			}
			if checkArena {
				checkDecision(s, dec.VM, last, decided > 0, len(view.Commits()), back)
				decided, last = decided+1, dec.VM
			}
		}
		hops += bits.OnesCount64(members)
	}
	if checkArena && hops != len(seg) {
		panic(fmt.Sprintf("shard: ring %d holds %d VMs in a segment of %d", s, hops, len(seg)))
	}
	st.VMs, st.Hops = hops, hops
	st.Skipped += hops - visits
	slices.Reverse(propMeta) // newest first, as the proposals
	out := Ring{ShardRound: st, Commits: view.Commits(), Proposals: seg[back:],
		CommitMeta: commitMeta, ProposalMeta: propMeta, traceDone: true}
	out.Near.Base, out.Near.Words = view.Near()
	*o = out
}

// checkArena makes every ring pass check that its decisions stay inside
// its arena segment, and that it decides each VM at most once, in the
// ascending order of the walk. Tests only: the scorecheck build tag sets
// it.
var checkArena bool

// checkDecision panics when ring s's decision on vm, after last (when it
// is not the pass's first), repeats or reorders the walk, or when its
// commits, the segment's first nc entries, ran into its proposals, which
// start at back.
func checkDecision(s int, vm, last cluster.VMID, after bool, nc, back int) {
	if after && vm <= last {
		panic(fmt.Sprintf("shard: ring %d decided VM %d after VM %d in one pass", s, vm, last))
	}
	if nc > back {
		panic(fmt.Sprintf("shard: ring %d's %d commits overran its proposals at %d", s, nc, back))
	}
}
