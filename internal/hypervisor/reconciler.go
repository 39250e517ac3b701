package hypervisor

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/shard"
	"github.com/score-dc/score/internal/token"
	"github.com/score-dc/score/internal/topology"
)

// ReconcilerConfig parameterizes the reconciliation agent — the
// coordinator-side endpoint of the sharded mode, colocated with the
// placement manager's registry.
type ReconcilerConfig struct {
	// Topo and Cost mirror every dom0's static knowledge; MigrationCost
	// is Theorem 1's c_m, shared with the agents so staging and
	// re-validation apply the same threshold.
	Topo          topology.Topology
	Cost          core.CostModel
	MigrationCost float64
	// Shards is the requested ring count (clamped to topology units);
	// Granularity aligns shard boundaries to pods or racks.
	Shards      int
	Granularity shard.Granularity
	// ShardDeadline bounds how long a shard ring may go without
	// progress (an accepted ack or its completion report) before the
	// reconciler regenerates its token from the last acked state; zero
	// means 5s. It must comfortably exceed one token visit's latency —
	// a spurious regeneration is safe (the attempt sequence number
	// discards the slow original) but wastes work.
	ShardDeadline time.Duration
	// EvictAttempts is how many consecutive regenerations may re-target
	// the same stalled holder before its host is evicted from the ring
	// (presumed crashed) and its ring slots re-homed to the successor;
	// zero means 2. Under pure message loss a single lost re-injection
	// therefore never evicts a live host.
	EvictAttempts int
	// Tuner, when set, supersedes Shards and Granularity (shard.Config's
	// rule): every round asks it — the adaptive control plane's
	// control.Controller, say — for the shard count and granularity.
	Tuner shard.Tuner
	// AdaptiveDeadline derives each shard's progress deadline from
	// observed per-hop ack latency (EWMA + k·stddev, see
	// latencyEstimator; its settings are the est* constants) instead of
	// the fixed ShardDeadline, which remains the warm-up fallback.
	// Slow-but-alive rings stop being spuriously regenerated — a
	// stale-attempt report proving a presumed-lost token alive applies a
	// multiplicative backoff — and on a healthy fabric dead rings are
	// caught near the estimator's 10ms floor instead of the conservative
	// fixed value. Its per-shard mean and stddev go to Metrics.
	AdaptiveDeadline bool
	// Metrics, when set, receives plane instrumentation (see
	// NewPlaneMetrics); nil leaves every record site an untaken branch.
	Metrics *PlaneMetrics
	// Trace, when set, records round/ring/regeneration span events.
	Trace *obs.Tracer
	// Audit, when set, receives one decision-provenance record per
	// staged move's merge/reconcile verdict, with the hop/attempt it
	// was staged under carried over the wire (see obs.AuditRing).
	Audit *obs.AuditRing
}

// RingReport is one shard ring's activity within a round: the ring's
// shard.ShardRound plus what supervising it over the wire took.
type RingReport struct {
	shard.ShardRound
	// Latency is the wall-clock time from token injection to the ring's
	// completion report — the per-shard ring latency of the round.
	Latency time.Duration
	// Regenerated counts token re-injections after missed shard
	// deadlines; Evicted counts hosts removed from the ring as
	// unresponsive. A ring with Regenerated > 0 that still completed is
	// a recovered ring.
	Regenerated, Evicted int
	// Spurious counts regenerations later witnessed unnecessary: a
	// report from a superseded attempt arrived, proving the
	// presumed-lost token was alive (merely slow). It is a lower bound
	// on the false-positive count — a spurious regeneration whose slow
	// token also got lost leaves no witness.
	Spurious int
	// Deadline is the progress deadline the ring ran with — adaptive
	// when the reconciler runs with AdaptiveDeadline, the fixed
	// configuration value otherwise. Under adaptation it is sampled at
	// injection and again at each deadline check, so the reported value
	// is the last one used.
	Deadline time.Duration
}

// RoundReport is one distributed round: the shard.Round the driver
// reports, each ring's report, and the supervision tallies. A round with
// an empty Applied list means the plane has quiesced. As on the
// in-process plane, Applied is lent by the round driver's merge and is
// valid until the next RunRound; everything else is the caller's.
type RoundReport struct {
	shard.Round
	Rings []RingReport
	// Regenerated sums token re-injections across rings; Recovered
	// counts rings that completed after at least one regeneration.
	// Evicted lists the hosts removed from rings as unresponsive this
	// round (their VMs' staged moves were discarded at merge time).
	Regenerated, Recovered int
	Evicted                []cluster.HostID
	// SpuriousRegens sums the rings' witnessed-unnecessary
	// regenerations (see RingReport.Spurious).
	SpuriousRegens int
}

const (
	// roundTimeout bounds the wait for all rings of a round. It is a
	// backstop: a healthy recovery path never reaches it, because stalled
	// rings regenerate on their shard deadline.
	roundTimeout = 2 * time.Minute
	// maxAttempts caps regenerations per shard per round; beyond it the
	// ring is finalized from the reconciler's copy as-is.
	maxAttempts = 32
)

// ringEvent is one MsgRingDone or MsgRingAck arrival.
type ringEvent struct {
	done bool
	st   *RingState
	// next is the handoff target reported by an ack — the holder the
	// token is traveling to, and the resume point if it never arrives.
	next cluster.VMID
	at   time.Time
}

// Reconciler drives sharded rounds over the distributed agent plane: the
// round is shard.Driver's, as in the in-process Coordinator, over
// agentPlane. RunRound must not be called concurrently.
type Reconciler struct {
	cfg    ReconcilerConfig
	reg    *Registry
	tr     Transport
	rq     requester
	events chan ringEvent
	// probeTimeout is bound into rq on Start; the commit path's wait for
	// a transfer whose every response was lost is counted in it.
	probeTimeout time.Duration
	// kern is the decision rule's kernel: the merge phase's Delta, which
	// runs strictly sequentially, scores on it.
	kern *core.Kernel
	drv  *shard.Driver

	// est is the adaptive-deadline estimator (nil when disabled).
	est *latencyEstimator

	// The round in progress: registered hosts, and the rings' collection.
	hostIDs []cluster.HostID
	cur     *roundState
}

// NewReconciler validates the configuration; call Start with a transport
// factory to go live.
func NewReconciler(cfg ReconcilerConfig, reg *Registry) (*Reconciler, error) {
	if cfg.Topo == nil || reg == nil {
		return nil, fmt.Errorf("hypervisor: nil dependency")
	}
	if cfg.ShardDeadline <= 0 {
		cfg.ShardDeadline = 5 * time.Second
	}
	if cfg.EvictAttempts <= 0 {
		cfg.EvictAttempts = 2
	}
	kern, err := core.NewKernel(cfg.Topo, cfg.Cost, cfg.MigrationCost)
	if err != nil {
		return nil, err
	}
	r := &Reconciler{cfg: cfg, kern: kern, reg: reg, probeTimeout: probeTimeout, events: make(chan ringEvent, 4096)}
	scfg := shard.Config{Shards: cfg.Shards, Granularity: cfg.Granularity, Tuner: cfg.Tuner, Trace: cfg.Trace, Audit: cfg.Audit}
	if cfg.Metrics != nil {
		scfg.Metrics = cfg.Metrics.Metrics
	}
	if r.drv, err = shard.NewDriver(cfg.Topo, scfg, cfg.MigrationCost, agentPlane{r}); err != nil {
		return nil, err
	}
	if cfg.AdaptiveDeadline {
		r.est = &latencyEstimator{m: cfg.Metrics}
	}
	return r, nil
}

// shardDeadline resolves shard s's current progress deadline: the
// adaptive estimate when enabled (with the fixed ShardDeadline as the
// warm-up fallback), the fixed value otherwise.
func (r *Reconciler) shardDeadline(s int) time.Duration {
	if r.est == nil {
		return r.cfg.ShardDeadline
	}
	return r.est.deadline(s, r.cfg.ShardDeadline)
}

// Start binds the reconciler to a transport created by mk.
func (r *Reconciler) Start(mk func(Handler) (Transport, error)) error {
	tr, err := mk(r.handle)
	if err != nil {
		return err
	}
	r.tr = tr
	r.rq.bind(tr, r.probeTimeout)
	return nil
}

// Addr returns the reconciler's transport address.
func (r *Reconciler) Addr() string { return r.tr.Addr() }

// Close shuts down the transport.
func (r *Reconciler) Close() error {
	if r.tr == nil {
		return nil
	}
	return r.tr.Close()
}

func (r *Reconciler) handle(from string, m Message) {
	switch m.Type {
	case MsgRingDone, MsgRingAck:
		st, err := DecodeRingState(m.Payload)
		if err != nil {
			return
		}
		select {
		case r.events <- ringEvent{done: m.Type == MsgRingDone, st: st, next: m.VM, at: time.Now()}:
		default: // overflow: an ack is droppable, a completion regenerates
		}
	case MsgCapacityResp, MsgMigrateAck, MsgShardAssignAck, MsgReconcileResp:
		r.rq.dispatch(m)
	}
}

// reconcileEnv is the merge phase's shard.Env on the distributed plane:
// locations resolve through the registry (authoritative, updated
// synchronously by every executed migration), capacity through probes,
// and Apply through the commit protocol. Capacity responses are cached for
// the phase — sound because during the merge the reconciler's own commits
// are the only capacity mutations, and the cache folds each one — and
// prefetch fills the cache in one concurrent probe wave before the replay,
// so no re-validated move waits on a round trip of its own. Every call
// observes the state the previous Apply left.
type reconcileEnv struct {
	r *Reconciler
	// recs holds each staged VM's demand and peer-rate row, as its move
	// carried them over the wire.
	recs map[cluster.VMID]vmRecord

	// capMu guards caps against prefetch's concurrent probes, one per
	// distinct host.
	capMu sync.Mutex
	caps  map[cluster.HostID]*hostCap
}

// hostCap is one probed host's capacity response, adjusted by every
// commit the merge phase lands. ok is false when the probe failed (dead
// or unregistered host) — Admissible then answers false without
// re-paying the probe timeout.
type hostCap struct {
	ok   bool
	room core.Room
}

// capacity returns the host's cache entry, probing once on a miss.
func (e *reconcileEnv) capacity(h cluster.HostID) *hostCap {
	e.capMu.Lock()
	if c, ok := e.caps[h]; ok {
		e.capMu.Unlock()
		return c
	}
	e.capMu.Unlock()
	c := &hostCap{}
	if addr, ok := e.r.reg.HostAddr(h); ok {
		if resp, err := e.r.rq.request(addr, Message{Type: MsgCapacityReq}); err == nil {
			c.ok, c.room = true, resp.room()
		}
	}
	e.capMu.Lock()
	e.caps[h] = c
	e.capMu.Unlock()
	return c
}

// prefetch warms the capacity cache for every distinct target of the
// rings' moves in one concurrent probe wave, overlapping the round trips
// (and the probe timeouts of dead hosts) the replay would otherwise pay
// one by one.
func (e *reconcileEnv) prefetch(rings []shard.Ring) {
	seen := make(map[cluster.HostID]bool)
	var wg sync.WaitGroup
	for _, rg := range rings {
		for _, ds := range [][]core.Decision{rg.Commits, rg.Proposals} {
			for _, d := range ds {
				if seen[d.Target] {
					continue
				}
				seen[d.Target] = true
				wg.Add(1)
				go func(h cluster.HostID) {
					defer wg.Done()
					e.capacity(h)
				}(d.Target)
			}
		}
	}
	wg.Wait()
}

func (e *reconcileEnv) HostOf(vm cluster.VMID) cluster.HostID {
	h, ok := e.r.reg.HostOfVM(vm)
	if !ok {
		return cluster.NoHost
	}
	return h
}

// Delta places the move's carried peer-rate row at the registry's
// locations and scores target on the shared kernel — the row the agent
// staged from, in the same order, so an undisturbed staged ΔC
// re-validates to the identical float.
func (e *reconcileEnv) Delta(vm cluster.VMID, target cluster.HostID) float64 {
	k := e.r.kern
	cur := e.HostOf(vm)
	if cur == target || cur == cluster.NoHost || !k.Covers(cur) || !k.Covers(target) {
		return 0
	}
	k.Begin(cur)
	for _, ed := range e.recs[vm].rates {
		if hz := e.HostOf(ed.Peer); hz != cluster.NoHost && k.Covers(hz) {
			k.Peer(hz, ed.Rate)
		}
	}
	return k.Score(target)
}

// need is what vm asks of host h, its peers where the registry places
// them.
func (e *reconcileEnv) need(vm cluster.VMID, h cluster.HostID) core.Need {
	rec := e.recs[vm]
	return rec.need(h, func(i int) cluster.HostID { return e.HostOf(rec.rates[i].Peer) })
}

func (e *reconcileEnv) Admissible(vm cluster.VMID, target cluster.HostID) bool {
	c, n := e.capacity(target), e.need(vm, target)
	e.capMu.Lock()
	defer e.capMu.Unlock()
	return c.ok && core.Admit(c.room, n)
}

// applyCap folds one landed commit into the capacity ledger, its NIC
// loads at the registry's peer positions (a peer may have moved since the
// move was staged); a failed commit instead invalidates both endpoints
// (the true state is unknown — e.g. retries exhausted after the transfer
// landed), forcing a fresh probe on the next touch.
func (e *reconcileEnv) applyCap(vm cluster.VMID, from, to cluster.HostID, landed bool) {
	rec, nicFrom, nicTo := e.recs[vm], -e.need(vm, from).Shift(), e.need(vm, to).Shift()
	e.capMu.Lock()
	defer e.capMu.Unlock()
	if !landed {
		delete(e.caps, from)
		delete(e.caps, to)
		return
	}
	if c, ok := e.caps[to]; ok && c.ok {
		c.room = plus(c.room, moved(-1, rec.ramMB, rec.cpuMilli, nicTo))
	}
	if c, ok := e.caps[from]; ok && c.ok {
		c.room = plus(c.room, moved(1, rec.ramMB, rec.cpuMilli, nicFrom))
	}
}

func (e *reconcileEnv) Apply(d core.Decision) error {
	from := e.HostOf(d.VM)
	srcAddr, ok := e.r.reg.Lookup(d.VM)
	if !ok {
		return fmt.Errorf("hypervisor: VM %d has no registered dom0", d.VM)
	}
	tgtAddr, ok := e.r.reg.HostAddr(d.Target)
	if !ok {
		return fmt.Errorf("hypervisor: host %d has no registered dom0", d.Target)
	}
	// Same-ReqID retries ride the source dom0's dedup cache: a lost
	// commit or response re-asks without re-executing.
	resp, err := e.r.rq.requestRetry(srcAddr, Message{
		Type: MsgReconcileCommit, VM: d.VM, Host: d.Target, Payload: []byte(tgtAddr),
	}, commitAttempts)
	if err != nil {
		// Every response was lost: the source may have started the
		// transfer on any attempt and still be retrying it. Once its
		// budget of commitAttempts probe timeouts has run out, the
		// registry, which the target updates before it acks, tells
		// whether the move landed.
		time.Sleep(time.Duration(commitAttempts+1) * e.r.probeTimeout)
		if addr, there := e.r.reg.Lookup(d.VM); !there || addr != tgtAddr {
			e.applyCap(d.VM, from, d.Target, false)
			return err
		}
	} else if resp.FreeSlots != 1 {
		e.applyCap(d.VM, from, d.Target, false)
		return fmt.Errorf("hypervisor: dom0 %s refused commit of VM %d", srcAddr, d.VM)
	}
	e.applyCap(d.VM, from, d.Target, true)
	return nil
}

// stage converts ring s's staged moves to the merge phase's currency —
// the decisions, and the provenance they carried over the wire — keeping
// the peer-rate table and demand each carried for re-validation. Moves
// that involve a host evicted this round — the VM's current dom0 is
// unresponsive, or the move lands on one — are split off as dropped:
// replaying them would stall one probe timeout per dead endpoint.
func (e *reconcileEnv) stage(ms []StagedMove, s int, evicted map[cluster.HostID]bool) (keep []core.Decision, meta []shard.AuditMeta, dropped []core.Decision) {
	keep = make([]core.Decision, 0, len(ms))
	meta = make([]shard.AuditMeta, 0, len(ms))
	for _, m := range ms {
		d := core.Decision{VM: m.VM, From: m.From, Target: m.To, Delta: m.Delta}
		e.recs[m.VM] = vmRecord{int(m.RAMMB), int(m.CPUMilli), m.Rates}
		if evicted[d.Target] || evicted[e.HostOf(d.VM)] {
			dropped = append(dropped, d)
			continue
		}
		keep = append(keep, d)
		meta = append(meta, shard.AuditMeta{Hop: m.Hop, Attempt: m.Attempt, Shard: int16(s)})
	}
	return keep, meta, dropped
}

// shardTrack is the reconciler's live copy of one shard ring within a
// round: the latest accepted RingState (injected, then advanced by every
// accepted MsgRingAck; the final one once done), the holder the token
// was last handed to, and the regeneration bookkeeping. This copy is
// what a lost ring is regenerated from — the protocol's recovery
// invariant is that everything the reconciler has acked survives a token
// loss, and everything after the last ack is re-decided by the
// regenerated ring.
type shardTrack struct {
	st   *RingState
	next cluster.VMID
	// injected is when the token was injected, lastProgress when the
	// newest accepted ack (or the injection) arrived: deadlines count from it.
	injected, lastProgress time.Time
	// attempt is the current regeneration sequence number; events
	// carrying any other attempt are stragglers from a presumed-lost
	// token and are discarded, so a regenerated ring can never
	// double-apply a move.
	attempt uint32
	// regenHops is st.Hops at the last regeneration and stuck the count
	// of consecutive regenerations that found it unchanged — the
	// eviction trigger.
	regenHops int32
	stuck     int
	done      bool
	// staleSeen marks superseded attempts a report arrived from — each
	// is one witnessed-spurious regeneration, counted once.
	staleSeen map[uint32]bool
	// sinceRegen marks that the next accepted progress interval starts
	// at a re-injection, not at an accepted ack: it measures the
	// regeneration gap plus the holder draining superseded forks, not
	// per-hop latency, and must not be fed to the estimator.
	sinceRegen bool
}

// roundState carries one RunRound's collection across helpers.
type roundState struct {
	roundID uint32
	reports []RingReport
	tracks  []*shardTrack
	evicted map[cluster.HostID]bool
	pending int
}

// finalize accepts st as shard s's final state.
func (r *Reconciler) finalize(c *roundState, s int, st *RingState, at time.Time) {
	c.tracks[s].st = st
	c.reports[s].Hops = int(st.Hops)
	c.reports[s].Committed = len(st.Staged)
	c.reports[s].Proposed = len(st.Proposals)
	c.reports[s].Latency = at.Sub(c.tracks[s].injected)
	c.tracks[s].done = true
	c.pending--
	if m := r.cfg.Metrics; m != nil {
		m.RingPass.Observe(c.reports[s].Latency.Seconds())
	}
	if tr := r.cfg.Trace; tr != nil {
		tr.Record(obs.Event{
			Kind: obs.EvRingDone, Round: c.roundID, Shard: int16(s),
			Arg: int64(st.Hops), Value: c.reports[s].Latency.Seconds(),
			Attempt: c.tracks[s].attempt,
		})
	}
}

// regenerate rebuilds shard s's ring from the reconciler's copy after a
// missed deadline: the token resumes at the holder it was last handed to,
// with the acked staged moves intact. A holder that has already swallowed
// EvictAttempts consecutive re-injections is presumed crashed: its host's
// VMs are evicted from the ring, their slots re-homed by resuming at the
// ring successor, and the ring limit shrunk accordingly. If the copy
// already covers the full pass (only the completion report was lost), or
// eviction empties the ring, the shard is finalized from the copy.
func (r *Reconciler) regenerate(c *roundState, s int) error {
	tk := c.tracks[s]
	st := tk.st
	if tk.attempt >= maxAttempts {
		r.finalize(c, s, st, time.Now())
		return nil
	}
	tok, err := token.Decode(st.Token)
	if err != nil {
		return fmt.Errorf("hypervisor: shard %d ring copy corrupt: %w", s, err)
	}
	resume := tk.next
	if tk.regenHops == st.Hops {
		tk.stuck++
	} else {
		tk.stuck = 1
		tk.regenHops = st.Hops
	}
	for {
		if st.Hops >= st.Limit || tok.Len() == 0 {
			// The pass completed but its report was lost, or nobody is
			// left to visit: the copy is the ring's final state.
			r.finalize(c, s, st, time.Now())
			return nil
		}
		if tk.stuck > r.cfg.EvictAttempts {
			// The resume holder ignored repeated re-injections: evict
			// its host and re-home its ring slots to the successor. The
			// ring limit stays put — we cannot tell which of the
			// evicted entries were already visited (their hops are
			// counted), so shrinking by all of them could finalize the
			// ring early and silently skip live VMs' visits. Keeping
			// the limit means the surviving entries absorb the dead
			// hosts' remaining slots as extra (re-)visits, each one a
			// valid staged-overlay decision.
			if h, ok := r.reg.HostOfVM(resume); ok {
				for _, e := range tok.Entries() {
					if vh, ok := r.reg.HostOfVM(e.ID); ok && vh == h {
						tok.Remove(e.ID)
					}
				}
				c.evicted[h] = true
				c.reports[s].Evicted++
				if m := r.cfg.Metrics; m != nil {
					m.Evictions.Inc()
				}
				if tr := r.cfg.Trace; tr != nil {
					tr.Record(obs.Event{Kind: obs.EvEvict, Round: c.roundID, Shard: int16(s), Arg: int64(h)})
				}
			} else {
				tok.Remove(resume)
			}
			next, ok := tok.Successor(resume)
			if !ok {
				r.finalize(c, s, st, time.Now())
				return nil
			}
			resume = next
			tk.stuck = 1
			continue
		}
		addr, ok := r.reg.Lookup(resume)
		if !ok {
			// Unroutable holder: treat as crashed immediately.
			tk.stuck = r.cfg.EvictAttempts + 1
			continue
		}
		tk.attempt++
		st.Attempt = tk.attempt
		st.Token = tok.Encode()
		c.reports[s].Regenerated++
		if m := r.cfg.Metrics; m != nil {
			m.Regens.Inc()
		}
		if tr := r.cfg.Trace; tr != nil {
			tr.Record(obs.Event{Kind: obs.EvRegen, Round: c.roundID, Shard: int16(s), Attempt: tk.attempt})
		}
		if err := r.tr.Send(addr, Message{Type: MsgShardToken, VM: resume, Payload: st.Encode()}); err != nil {
			// The holder's transport is gone: evict and move on.
			tk.stuck = r.cfg.EvictAttempts + 1
			continue
		}
		tk.next = resume
		tk.regenHops = st.Hops
		tk.lastProgress = time.Now()
		tk.sinceRegen = true
		return nil
	}
}

// observeProgress feeds the adaptive-deadline estimator one accepted
// progress report: the interval since the shard's previous accepted
// progress, divided by the hops it spans.
func (r *Reconciler) observeProgress(s int, tk *shardTrack, st *RingState, at time.Time) {
	if r.est == nil {
		return
	}
	if tk.sinceRegen {
		// The interval since the re-injection conflates the regeneration
		// gap and the fork-queue drain; folding it would teach the
		// estimator the recovery path's own latency and stall the next
		// detection. Resume sampling from the next ack-to-ack interval.
		tk.sinceRegen = false
		return
	}
	hops := st.Hops - tk.st.Hops
	if hops <= 0 {
		return
	}
	r.est.observe(s, at.Sub(tk.lastProgress)/time.Duration(hops))
}

// witnessStale records a report from a superseded attempt — proof the
// regeneration that superseded it was unnecessary. Each stale attempt
// counts once, and the estimator backs off multiplicatively so the next
// deadline clears the ring's true progress latency even before enough
// accepted samples raise the EWMA.
func (r *Reconciler) witnessStale(c *roundState, s int, tk *shardTrack, attempt uint32) {
	if attempt >= tk.attempt || tk.staleSeen[attempt] {
		return
	}
	if tk.staleSeen == nil {
		tk.staleSeen = make(map[uint32]bool)
	}
	tk.staleSeen[attempt] = true
	c.reports[s].Spurious++
	if m := r.cfg.Metrics; m != nil {
		m.Spurious.Inc()
	}
	if tr := r.cfg.Trace; tr != nil {
		tr.Record(obs.Event{Kind: obs.EvSpurious, Round: c.roundID, Shard: int16(s), Attempt: attempt})
	}
	if r.est != nil {
		r.est.penalize(s)
	}
}

// collect waits for every injected ring to complete, regenerating rings
// that miss their shard deadline — fixed, or per-shard adaptive when the
// estimator is on. Acks advance each shard's copy monotonically (a
// duplicated token forks the state; only the furthest-advanced fork is
// kept, and only one completion is accepted).
func (r *Reconciler) collect(c *roundState) error {
	timeout := time.After(roundTimeout)
	tickBase := r.cfg.ShardDeadline
	if r.est != nil {
		tickBase = min(tickBase, estMin)
	}
	ticker := time.NewTicker(max(tickBase/4, time.Millisecond))
	defer ticker.Stop()
	for c.pending > 0 {
		select {
		case ev := <-r.events:
			if ev.st.Round != c.roundID {
				continue // straggler from an earlier, aborted round
			}
			s := int(ev.st.Shard)
			if s < 0 || s >= len(c.tracks) || c.tracks[s] == nil {
				continue
			}
			tk := c.tracks[s]
			if tk.done {
				continue
			}
			if ev.st.Attempt != tk.attempt {
				// Stale attempt: a regenerated ring superseded it — and
				// its arrival proves that token was alive, not lost.
				r.witnessStale(c, s, tk, ev.st.Attempt)
				continue
			}
			if ev.done {
				r.observeProgress(s, tk, ev.st, ev.at)
				r.finalize(c, s, ev.st, ev.at)
				if r.est != nil && c.reports[s].Regenerated == 0 {
					r.est.relax(s)
				}
			} else if ev.st.Hops > tk.st.Hops {
				r.observeProgress(s, tk, ev.st, ev.at)
				tk.st = ev.st
				tk.next = ev.next
				tk.lastProgress = ev.at
				if m := r.cfg.Metrics; m != nil {
					m.Acks.Inc()
				}
				if tr := r.cfg.Trace; tr != nil {
					tr.Record(obs.Event{
						Kind: obs.EvTokenVisit, Round: c.roundID, Shard: int16(s),
						Arg: int64(ev.st.Hops), Attempt: tk.attempt,
					})
				}
			}
		case now := <-ticker.C:
			for s, tk := range c.tracks {
				if tk == nil || tk.done {
					continue
				}
				dl := r.shardDeadline(s)
				c.reports[s].Deadline = dl
				if m := r.cfg.Metrics; m != nil {
					m.Deadline.At(s).Set(dl.Seconds())
				}
				if now.Sub(tk.lastProgress) < dl {
					continue
				}
				if err := r.regenerate(c, s); err != nil {
					return err
				}
			}
		case <-timeout:
			return fmt.Errorf("hypervisor: round %d timed out waiting for ring completions", c.roundID)
		}
	}
	return nil
}

// RunRound executes one full distributed cycle and blocks until its
// migrations have been committed. See the package documentation for the
// message flow. The report's Applied list is valid until the next
// RunRound, which reuses its storage; a caller that keeps the moves
// longer copies them.
func (r *Reconciler) RunRound() (*RoundReport, error) {
	rd, err := r.drv.RunRound()
	if err != nil {
		return nil, err
	}
	c := r.cur
	rep := &RoundReport{Round: *rd, Rings: c.reports}
	for s := range rep.Rings {
		ring := &rep.Rings[s]
		ring.ShardRound = rd.Shards[s]
		rep.Regenerated += ring.Regenerated
		rep.SpuriousRegens += ring.Spurious
		if ring.Regenerated > 0 {
			rep.Recovered++
		}
	}
	for h := range c.evicted {
		rep.Evicted = append(rep.Evicted, h)
	}
	slices.Sort(rep.Evicted)
	return rep, nil
}

// agentPlane is the Reconciler as the driver's shard.Plane: the registry
// is its placement, its rings are dom0 agents, supervised from here.
type agentPlane struct{ *Reconciler }

func (p agentPlane) Hosts() (int, error) {
	p.hostIDs = p.reg.HostList()
	if len(p.hostIDs) == 0 {
		return 0, fmt.Errorf("hypervisor: no agents registered")
	}
	return int(p.hostIDs[len(p.hostIDs)-1]) + 1, nil
}

// Run is the agent plane's part of a round: push the shard assignment,
// run one token ring per shard over the registry's placement, and stage
// what the rings report for the merge over the wire Env.
func (p agentPlane) Run(rd *shard.Round, part *shard.Partition, mg *shard.Merge) ([]shard.Ring, error) {
	r, roundID, n := p.Reconciler, rd.Number, part.Shards()
	if r.est != nil {
		r.est.shape(n, rd.Granularity)
	}

	// 1. Push the round's shard assignment to every agent. A host that
	// does not ack within the probe timeout is evicted for the round —
	// its VMs keep their placement, stay out of every ring, and rejoin
	// as soon as their dom0 acks a later round's assignment. Failing the
	// round here would let one crashed agent wedge the plane forever.
	asg := &ShardAssignment{Round: roundID, Shards: int32(n), ReconcilerAddr: r.tr.Addr(), HostShard: part.HostShards()}
	payload := asg.Encode()
	// Push concurrently: the requester correlates responses by ReqID,
	// so setup costs ~1 RTT instead of O(hosts), and dead hosts overlap
	// their probe-timeout stalls instead of serializing them.
	dead := make(map[cluster.HostID]bool)
	var (
		deadMu sync.Mutex
		wg     sync.WaitGroup
	)
	for _, h := range r.hostIDs {
		wg.Add(1)
		go func(h cluster.HostID) {
			defer wg.Done()
			addr, _ := r.reg.HostAddr(h)
			if _, err := r.rq.request(addr, Message{Type: MsgShardAssign, Host: h, Payload: payload}); err != nil {
				deadMu.Lock()
				dead[h] = true
				deadMu.Unlock()
			}
		}(h)
	}
	wg.Wait()
	if len(dead) == len(r.hostIDs) {
		return nil, fmt.Errorf("hypervisor: no agent acked the round %d shard assignment", roundID)
	}
	// Assignment-phase evictions are plane-level (no ring is running
	// yet), so the events carry shard -1.
	if m := r.cfg.Metrics; m != nil {
		m.Evictions.Add(uint64(len(dead)))
	}
	if trc := r.cfg.Trace; trc != nil {
		for h := range dead {
			trc.Record(obs.Event{Kind: obs.EvEvict, Round: roundID, Shard: -1, Arg: int64(h)})
		}
	}

	// 2. Inject one token per shard; the rings run concurrently. A ring
	// is its shard's VMs on live hosts, in ascending ID order, read
	// straight off the registry. The reconciler keeps a copy of each
	// injected state and advances it from the per-visit acks — the
	// material a lost ring is regenerated from.
	lists := make([][]cluster.VMID, n)
	for _, vm := range r.reg.VMList() {
		if h, ok := r.reg.HostOfVM(vm); ok && !dead[h] {
			s := part.ShardOfHost(h)
			lists[s] = append(lists[s], vm)
		}
	}
	rings := token.Rings(lists, uint8(r.cfg.Topo.Depth()))
	c := &roundState{
		roundID: roundID,
		reports: make([]RingReport, n),
		tracks:  make([]*shardTrack, n),
		evicted: dead,
	}
	for s := 0; s < n; s++ {
		c.reports[s] = RingReport{ShardRound: shard.ShardRound{Shard: s, VMs: len(lists[s])}, Deadline: r.shardDeadline(s)}
		first, ok := rings[s].Inject()
		if !ok {
			continue // empty shard: no ring this round
		}
		addr, ok := r.reg.Lookup(first)
		if !ok {
			return nil, fmt.Errorf("hypervisor: injection point VM %d has no registered dom0", first)
		}
		st := &RingState{Shard: int32(s), Round: roundID, Limit: int32(len(lists[s])), Token: rings[s].Encode()}
		now := time.Now()
		c.tracks[s] = &shardTrack{st: st, next: first, injected: now, lastProgress: now}
		if err := r.tr.Send(addr, Message{Type: MsgShardToken, VM: first, Payload: st.Encode()}); err != nil {
			return nil, fmt.Errorf("hypervisor: injecting shard %d token: %w", s, err)
		}
		c.pending++
	}

	// 3. Collect ring completions, regenerating rings that miss the
	// shard deadline.
	if err := r.collect(c); err != nil {
		return nil, err
	}
	r.cur = c

	// 4. Stage the rings' output for the merge over the distributed env,
	// withdrawing moves that touch an evicted host, then warm every
	// capacity probe the merge will issue in one wave, so no move of the
	// replay pays a probe round trip.
	env := &reconcileEnv{
		r:    r,
		recs: make(map[cluster.VMID]vmRecord),
		caps: make(map[cluster.HostID]*hostCap),
	}
	mg.Env = env
	out := make([]shard.Ring, n)
	for s, tk := range c.tracks {
		out[s].ShardRound = c.reports[s].ShardRound
		if tk == nil {
			continue
		}
		var droppedCommits, droppedProps []core.Decision
		out[s].Commits, out[s].CommitMeta, droppedCommits = env.stage(tk.st.Staged, s, c.evicted)
		out[s].Proposals, out[s].ProposalMeta, droppedProps = env.stage(tk.st.Proposals, s, c.evicted)
		mg.Withdraw(s, droppedCommits, droppedProps)
	}
	env.prefetch(out)
	return out, nil
}
