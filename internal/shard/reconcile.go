package shard

import (
	"math"
	"sort"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/obs"
)

// Env abstracts the authoritative allocation state a reconciliation pass
// re-validates and applies moves against. The in-process Coordinator
// backs it with a core.Engine (EngineEnv); the distributed hypervisor
// plane backs it with location/capacity probes and reconcile-commit
// messages. Both planes run the *same* merge and reconciliation code
// below, so their ordering and Theorem 1 re-validation cannot drift.
//
// Implementations must behave like the engine's primitives: Delta
// returns Eq. 5's ΔC for moving vm to target against the current state,
// Admissible performs the capacity check, HostOf resolves the current
// host, and Apply executes the move returning the realized ΔC. Calls are
// strictly sequential.
type Env interface {
	Delta(vm cluster.VMID, target cluster.HostID) float64
	Admissible(vm cluster.VMID, target cluster.HostID) bool
	HostOf(vm cluster.VMID) cluster.HostID
	Apply(d core.Decision) (realized float64, err error)
}

// EngineEnv returns eng as the reconciliation Env; the engine implements
// it, and RejectObserver, directly.
func EngineEnv(eng *core.Engine) Env { return eng }

var _ RejectObserver = (*core.Engine)(nil)

// RejectObserver is optionally implemented by an Env that must learn
// which staged commits MergeStaged dropped (re-validation failed, or
// Apply did) — the count it returns says how many, not which.
// core.Engine implements it: verdicts a view memoized after staging such
// a commit were computed against a move that never happened.
type RejectObserver interface {
	Rejected(d core.Decision)
}

// rejectStaged reports one dropped staged commit to env, when it cares.
func rejectStaged(env Env, d core.Decision) {
	if ro, ok := env.(RejectObserver); ok {
		ro.Rejected(d)
	}
}

// AuditMeta is per-decision provenance riding alongside a pass's input
// decisions: the ring that staged the move, the token attempt it was
// staged under, and the 0-based token-visit hop at staging time (-1
// when untracked). Both planes fill it from their own bookkeeping — the
// Coordinator from ringPass loop indexes, the distributed reconciler
// from the StagedMove wire fields.
type AuditMeta struct {
	Hop     int32
	Attempt uint32
	Shard   int16
}

// AuditPass binds an audit ring to one reconciliation pass. Meta[i]
// aligns with the pass's input decision slice (and is kept aligned
// through the canonical proposal sort); a nil or short Meta records
// unknown provenance (-1 hop/shard) rather than failing. Because the
// record sites live in the shared passes below, every plane running
// them — the in-process Coordinator and the distributed Reconciler —
// emits audit records by construction.
type AuditPass struct {
	Ring  *obs.AuditRing
	Round uint32
	Meta  []AuditMeta

	// t stamps every record of this pass with one clock read — a pass
	// is a single merge window, and per-record time.Now() is measurable
	// at 100k-VM rounds (~65k decisions).
	t int64
}

func (a *AuditPass) metaAt(i int) AuditMeta {
	if a == nil || i < 0 || i >= len(a.Meta) {
		return AuditMeta{Hop: -1, Shard: -1}
	}
	return a.Meta[i]
}

// record appends one verdict for input decision index i. staged is the
// ΔC the move was staged with; final the re-validated (applied:
// realized) ΔC. Nil receivers and nil rings disable auditing.
func (a *AuditPass) record(i int, vm cluster.VMID, from, to cluster.HostID, staged, final float64, verdict uint8) {
	if a == nil || a.Ring == nil {
		return
	}
	if a.t == 0 {
		a.t = time.Now().UnixNano()
	}
	m := a.metaAt(i)
	a.Ring.Append(obs.AuditRecord{
		T:          a.t,
		StagedBits: math.Float64bits(staged),
		FinalBits:  math.Float64bits(final),
		VM:         uint32(vm),
		Round:      a.Round,
		Attempt:    m.Attempt,
		Hop:        m.Hop,
		From:       int32(from),
		To:         int32(to),
		Shard:      m.Shard,
		Verdict:    verdict,
	})
}

// proposalOrder sorts decisions by the canonical comparator, carrying an
// optional meta slice through the same swaps so provenance stays aligned.
type proposalOrder struct {
	ps   []core.Decision
	meta []AuditMeta
}

func (o proposalOrder) Len() int { return len(o.ps) }
func (o proposalOrder) Less(i, j int) bool {
	a, b := o.ps[i], o.ps[j]
	if a.Delta != b.Delta {
		return a.Delta > b.Delta
	}
	if a.VM != b.VM {
		return a.VM < b.VM
	}
	return a.Target < b.Target
}
func (o proposalOrder) Swap(i, j int) {
	o.ps[i], o.ps[j] = o.ps[j], o.ps[i]
	if o.meta != nil {
		o.meta[i], o.meta[j] = o.meta[j], o.meta[i]
	}
}

// OrderProposals sorts cross-shard proposals into the canonical
// reconciliation order: strongest staged ΔC first, ties by VM then
// target. Every reconciliation pass — the Coordinator's and the
// distributed reconciler agent's — must apply proposals in exactly this
// order for sharded runs to be deterministic and comparable across
// planes.
func OrderProposals(ps []core.Decision) {
	sort.Sort(proposalOrder{ps: ps})
}

// BatchEnv optionally extends Env for planes where re-validation and
// apply cost wire round trips (the distributed reconciler). The shared
// merge/reconcile passes use it to cut the serial tail: Prefetch warms
// capacity state for every probed target in one concurrent wave, and
// ApplyAll pipelines commits to pairwise-independent decisions. The
// batched path is observably identical to the sequential one — same
// decisions, same floats, same order — because only decisions whose
// Delta, Admissible, HostOf and Apply provably cannot influence each
// other (disjoint VMs, peer sets and host pairs) share a window.
type BatchEnv interface {
	Env
	// Prefetch warms capacity state for targets so subsequent Admissible
	// calls do not pay one probe round trip each. Hosts already warm are
	// skipped.
	Prefetch(targets []cluster.HostID)
	// Peers returns vm's communicating peers — the VMs whose position
	// feeds vm's ΔC. Used for the independence analysis only.
	Peers(vm cluster.VMID) []cluster.VMID
	// ApplyAll executes already-validated, pairwise-independent
	// decisions concurrently, returning the realized ΔC (or error) per
	// decision in input order.
	ApplyAll(ds []core.Decision) ([]float64, []error)
}

// The pipelined commit window is derived, not fixed. Each ApplyAll
// wave costs roughly one commit round trip regardless of width (the
// commits inside a wave overlap), so a merge of n remaining decisions
// pays a serial tail of about ceil(n/w)·RTT. The tuner keeps an EWMA
// of observed wave round trips and picks the smallest window that
// lands the whole merge inside mergeBudget — small merges over fast
// links stay narrow (fewer simultaneous migrations), long merges over
// slow links widen up to maxBatch. Before the first observation the
// window is defaultBatch, the old fixed cap.
const (
	defaultBatch = 16
	maxBatch     = 64
	mergeBudget  = 250 * time.Millisecond
	rttAlpha     = 0.5 // EWMA weight of the newest wave RTT
)

// BatchTuner derives the pipelined commit window from observed commit
// round trips. The zero value is ready to use; a plane that wants the
// estimate to survive across rounds keeps one tuner alive and hands it
// to the shared pass via the WindowTuner interface. Not safe for
// concurrent use — reconciliation passes are strictly sequential.
type BatchTuner struct {
	rttNS float64 // EWMA of one pipelined wave's round trip
}

// observe folds one ApplyAll wave's measured duration into the RTT
// estimate.
func (t *BatchTuner) observe(d time.Duration) {
	if d <= 0 {
		return
	}
	ns := float64(d)
	if t.rttNS == 0 {
		t.rttNS = ns
		return
	}
	t.rttNS += rttAlpha * (ns - t.rttNS)
}

// window returns the commit-wave cap given how many decisions remain
// in the merge: the smallest w with ceil(remaining/w)·RTT ≤ mergeBudget,
// clamped to [1, maxBatch]. Any cap yields the sequential outcome —
// batchWindow only ever admits pairwise-independent prefixes — so the
// window is purely a latency/fan-out trade.
func (t *BatchTuner) window(remaining int) int {
	if t == nil || t.rttNS <= 0 {
		return defaultBatch
	}
	w := int(math.Ceil(float64(remaining) * t.rttNS / float64(mergeBudget)))
	if w < 1 {
		w = 1
	}
	if w > maxBatch {
		w = maxBatch
	}
	return w
}

// WindowTuner is optionally implemented by a BatchEnv whose commit RTT
// estimate should persist across reconciliation rounds. Envs without it
// get a fresh per-pass tuner, which still adapts across the waves of
// one long merge.
type WindowTuner interface {
	Tuner() *BatchTuner
}

// WindowObserver is optionally implemented by a BatchEnv that wants to see
// every pipelined commit-window size the shared passes choose — the
// distributed plane feeds them into its merge-window histogram and trace.
type WindowObserver interface {
	ObserveWindow(w int)
}

// observeWindow notifies env of a chosen window, when it cares.
func observeWindow(env BatchEnv, w int) {
	if wo, ok := env.(WindowObserver); ok {
		wo.ObserveWindow(w)
	}
}

// tunerOf returns the env's persistent tuner, or a fresh per-pass one.
func tunerOf(env BatchEnv) *BatchTuner {
	if wt, ok := env.(WindowTuner); ok {
		if t := wt.Tuner(); t != nil {
			return t
		}
	}
	return &BatchTuner{}
}

// batchWindow returns how many leading decisions of ds (≥ 1, ≤ cap) are
// pairwise independent: distinct VMs, no decision's VM in another's
// peer set, and disjoint {source, target} host pairs. Within such a
// window, validating every decision against the pre-window state and
// applying them in any order (or concurrently) yields exactly the
// sequential outcome.
func batchWindow(env BatchEnv, ds []core.Decision, cap int) int {
	if len(ds) < 2 {
		return len(ds)
	}
	vms := map[cluster.VMID]bool{}
	peers := map[cluster.VMID]bool{}
	hosts := map[cluster.HostID]bool{}
	admit := func(d core.Decision) bool {
		if vms[d.VM] || peers[d.VM] {
			return false
		}
		src := env.HostOf(d.VM)
		if hosts[src] || hosts[d.Target] {
			return false
		}
		ps := env.Peers(d.VM)
		for _, p := range ps {
			if vms[p] {
				return false
			}
		}
		vms[d.VM] = true
		hosts[src], hosts[d.Target] = true, true
		for _, p := range ps {
			peers[p] = true
		}
		return true
	}
	// The first decision always admits (every conflict set starts
	// empty), so the window is never smaller than 1.
	w := 0
	for w < len(ds) && w < cap && admit(ds[w]) {
		w++
	}
	if w == 0 {
		w = 1 // cap < 1 must still make progress
	}
	return w
}

// PrefetchDecisions warms env's capacity state for every distinct
// target across all the decision groups in one probe wave; envs without
// batching ignore it. Merge drivers call it once before a multi-shard
// merge so the probes behind every window of every pass — each shard's
// MergeStaged and the closing ReconcileProposals — overlap in a single
// wave instead of serializing one wave per pass. The per-pass prefetch
// still runs and skips the now-warm hosts, so passes invoked directly
// keep their own warm-up.
func PrefetchDecisions(env Env, groups ...[]core.Decision) {
	be, ok := env.(BatchEnv)
	if !ok {
		return
	}
	seen := map[cluster.HostID]bool{}
	var targets []cluster.HostID
	for _, ds := range groups {
		for _, d := range ds {
			if !seen[d.Target] {
				seen[d.Target] = true
				targets = append(targets, d.Target)
			}
		}
	}
	if len(targets) > 0 {
		be.Prefetch(targets)
	}
}

// prefetchTargets warms the distinct capacity-probe targets of ds.
func prefetchTargets(env BatchEnv, ds []core.Decision) {
	seen := map[cluster.HostID]bool{}
	targets := make([]cluster.HostID, 0, len(ds))
	for _, d := range ds {
		if !seen[d.Target] {
			seen[d.Target] = true
			targets = append(targets, d.Target)
		}
	}
	env.Prefetch(targets)
}

// MergeStaged replays one ring's staged intra-shard commits against env.
// Capacity cannot have shifted within the shard (no other ring touches
// its hosts), but a staged move's ΔC was computed against frozen
// cross-shard peer positions — an earlier-merged shard may have moved a
// peer since. Each move is therefore re-validated against the merged
// state so Theorem 1 holds for everything that lands; with a single
// shard the re-check is exact and never fires. stale counts the moves
// dropped by re-validation or by a failing Apply — in the distributed
// env an Apply failure means commit retries were exhausted against an
// unresponsive dom0, and rejecting that one move (exactly as
// ReconcileProposals does) must not discard the round's remaining work.
// The error return is reserved for future envs with aborting failures;
// the current implementations never set it.
//
// au, when non-nil, receives one audit record per input decision —
// merged with the realized ΔC, stale with the re-validated one — so
// every plane running this pass emits decision provenance by
// construction. Nil disables auditing with a single untaken branch.
func MergeStaged(env Env, cm float64, commits []core.Decision, au *AuditPass) (applied []core.Decision, stale int, err error) {
	if be, ok := env.(BatchEnv); ok {
		applied, stale = mergeStagedBatched(be, cm, commits, au)
		return applied, stale, nil
	}
	for i, d := range commits {
		rd := env.Delta(d.VM, d.Target)
		if rd <= cm || !env.Admissible(d.VM, d.Target) {
			stale++
			rejectStaged(env, d)
			au.record(i, d.VM, d.From, d.Target, d.Delta, rd, obs.VerdictStale)
			continue
		}
		realized, err := env.Apply(d)
		if err != nil {
			stale++
			rejectStaged(env, d)
			au.record(i, d.VM, d.From, d.Target, d.Delta, rd, obs.VerdictStale)
			continue
		}
		applied = append(applied, core.Decision{VM: d.VM, From: d.From, Target: d.Target, Delta: realized})
		au.record(i, d.VM, d.From, d.Target, d.Delta, realized, obs.VerdictMerged)
	}
	return applied, stale, nil
}

// mergeStagedBatched is MergeStaged over a BatchEnv: capacity probes are
// prefetched in one concurrent wave, and consecutive pairwise-
// independent commits are validated against the shared pre-window state
// and applied as one pipelined wave.
func mergeStagedBatched(env BatchEnv, cm float64, commits []core.Decision, au *AuditPass) (applied []core.Decision, stale int) {
	prefetchTargets(env, commits)
	tuner := tunerOf(env)
	for i := 0; i < len(commits); {
		w := batchWindow(env, commits[i:], tuner.window(len(commits)-i))
		observeWindow(env, w)
		exec := make([]core.Decision, 0, w)
		execIx := make([]int, 0, w)   // input indexes, for audit provenance
		execRd := make([]float64, 0, w) // re-validated ΔC per exec entry
		for k, d := range commits[i : i+w] {
			rd := env.Delta(d.VM, d.Target)
			if rd <= cm || !env.Admissible(d.VM, d.Target) {
				stale++
				rejectStaged(env, d)
				au.record(i+k, d.VM, d.From, d.Target, d.Delta, rd, obs.VerdictStale)
				continue
			}
			exec = append(exec, d)
			execIx = append(execIx, i+k)
			execRd = append(execRd, rd)
		}
		start := time.Now()
		realized, errs := env.ApplyAll(exec)
		if len(exec) > 0 {
			tuner.observe(time.Since(start))
		}
		for j, d := range exec {
			if errs[j] != nil {
				stale++
				rejectStaged(env, d)
				au.record(execIx[j], d.VM, d.From, d.Target, d.Delta, execRd[j], obs.VerdictStale)
				continue
			}
			applied = append(applied, core.Decision{VM: d.VM, From: d.From, Target: d.Target, Delta: realized[j]})
			au.record(execIx[j], d.VM, d.From, d.Target, d.Delta, realized[j], obs.VerdictMerged)
		}
		i += w
	}
	return applied, stale
}

// ReconcileProposals applies queued cross-shard proposals in the
// canonical OrderProposals order, re-validating ΔC and admissibility
// against the merged state before each apply — Theorem 1 for every move
// that lands. Proposals that fail re-validation (or whose Apply errors)
// are rejected. The input slice is reordered in place; when au carries
// aligned Meta, its entries are carried through the same sort so each
// audit record keeps the hop/attempt the proposal was staged under.
func ReconcileProposals(env Env, cm float64, proposals []core.Decision, au *AuditPass) (applied []core.Decision, rejected []core.Decision) {
	if au != nil && len(au.Meta) == len(proposals) {
		sort.Sort(proposalOrder{ps: proposals, meta: au.Meta})
	} else {
		OrderProposals(proposals)
	}
	if be, ok := env.(BatchEnv); ok {
		return reconcileProposalsBatched(be, cm, proposals, au)
	}
	for i, pr := range proposals {
		d := env.Delta(pr.VM, pr.Target)
		if d <= cm || !env.Admissible(pr.VM, pr.Target) {
			rejected = append(rejected, pr)
			au.record(i, pr.VM, pr.From, pr.Target, pr.Delta, d, obs.VerdictCrossRejected)
			continue
		}
		from := env.HostOf(pr.VM)
		realized, err := env.Apply(core.Decision{VM: pr.VM, From: from, Target: pr.Target, Delta: d})
		if err != nil {
			rejected = append(rejected, pr)
			au.record(i, pr.VM, from, pr.Target, pr.Delta, d, obs.VerdictCrossRejected)
			continue
		}
		applied = append(applied, core.Decision{VM: pr.VM, From: from, Target: pr.Target, Delta: realized})
		au.record(i, pr.VM, from, pr.Target, pr.Delta, realized, obs.VerdictCrossApplied)
	}
	return applied, rejected
}

// reconcileProposalsBatched is the canonical-order proposal pass over a
// BatchEnv: same order, same re-validation, same floats — with probe
// prefetching and pipelined commits inside each pairwise-independent
// window.
func reconcileProposalsBatched(env BatchEnv, cm float64, proposals []core.Decision, au *AuditPass) (applied []core.Decision, rejected []core.Decision) {
	prefetchTargets(env, proposals)
	tuner := tunerOf(env)
	for i := 0; i < len(proposals); {
		w := batchWindow(env, proposals[i:], tuner.window(len(proposals)-i))
		observeWindow(env, w)
		exec := make([]core.Decision, 0, w)
		orig := make([]core.Decision, 0, w)
		execIx := make([]int, 0, w)
		for k, pr := range proposals[i : i+w] {
			d := env.Delta(pr.VM, pr.Target)
			if d <= cm || !env.Admissible(pr.VM, pr.Target) {
				rejected = append(rejected, pr)
				au.record(i+k, pr.VM, pr.From, pr.Target, pr.Delta, d, obs.VerdictCrossRejected)
				continue
			}
			exec = append(exec, core.Decision{VM: pr.VM, From: env.HostOf(pr.VM), Target: pr.Target, Delta: d})
			orig = append(orig, pr)
			execIx = append(execIx, i+k)
		}
		start := time.Now()
		realized, errs := env.ApplyAll(exec)
		if len(exec) > 0 {
			tuner.observe(time.Since(start))
		}
		for j, d := range exec {
			if errs[j] != nil {
				rejected = append(rejected, orig[j])
				au.record(execIx[j], d.VM, d.From, d.Target, orig[j].Delta, d.Delta, obs.VerdictCrossRejected)
				continue
			}
			applied = append(applied, core.Decision{VM: d.VM, From: d.From, Target: d.Target, Delta: realized[j]})
			au.record(execIx[j], d.VM, d.From, d.Target, orig[j].Delta, realized[j], obs.VerdictCrossApplied)
		}
		i += w
	}
	return applied, rejected
}
