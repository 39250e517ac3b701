package shard

import (
	"math"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/obs"
)

// Env abstracts the authoritative allocation state the merge phase
// re-validates and applies moves against. The in-process Coordinator
// backs it with a core.Engine (EngineEnv); the distributed hypervisor
// plane backs it with location/capacity probes and reconcile-commit
// messages. Both planes run the *same* Merge over it, so their ordering
// and Theorem 1 re-validation cannot drift.
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
// which staged commits the merge dropped (re-validation failed, or Apply
// did). core.Engine implements it: verdicts a view memoized after staging
// such a commit were computed against a move that never happened.
type RejectObserver interface {
	Rejected(d core.Decision)
}

// BatchEnv is an Env for planes where re-validation and apply cost wire
// round trips (the distributed reconciler). Handed one, the merge phase
// takes the windowed replay, which cuts the serial tail: Prefetch warms
// capacity state for every probed target in one concurrent wave, and
// ApplyAll pipelines commits to pairwise-independent decisions. The
// windowed replay is observably identical to the sequential one — same
// decisions, same floats, same order, same records — because only
// decisions whose Delta, Admissible, HostOf and Apply provably cannot
// influence each other (disjoint VMs, peer sets and host pairs) share a
// window.
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
	// Tuner returns the plane's commit-RTT estimate, never nil: kept by
	// the plane across rounds, so a round's first wave starts from the
	// link speed last observed.
	Tuner() *BatchTuner
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
// round trips. The zero value is ready to use; a BatchEnv hands the
// merge phase the one its plane keeps alive. Not safe for concurrent
// use — replays are strictly sequential.
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
// target across all the decision groups in one probe wave. A plane calls
// it once before the merge phase so the probes behind every window of
// every pass overlap in a single wave; the per-pass prefetch still runs
// and skips the now-warm hosts.
func PrefetchDecisions(env BatchEnv, groups ...[]core.Decision) {
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
		env.Prefetch(targets)
	}
}

// replay is the sequential replay loop: each decision of the pass is
// re-validated against the state the previous one left, applied, and
// its verdict recorded, in input order.
func (m *Merge) replay(ds []core.Decision) {
	env := m.Env
	for i, d := range ds {
		rd := env.Delta(d.VM, d.Target)
		if rd <= m.Cm || !env.Admissible(d.VM, d.Target) {
			m.drop(i, d, d.From, rd)
			continue
		}
		ex := d
		if m.kind.cross {
			ex.From, ex.Delta = env.HostOf(d.VM), rd
		}
		realized, err := env.Apply(ex)
		if err != nil {
			m.drop(i, d, ex.From, rd)
			continue
		}
		m.land(i, ex, d.Delta, realized)
	}
}

// replayWindowed is the same pass over a BatchEnv: capacity probes are
// prefetched in one wave, and consecutive pairwise-independent decisions
// are validated against the shared pre-window state and applied as one
// pipelined wave, their verdicts recorded in input order once it is back.
func (m *Merge) replayWindowed(env BatchEnv, ds []core.Decision) {
	PrefetchDecisions(env, ds)
	tuner := env.Tuner()
	var (
		exec []core.Decision // the window's validated moves, as executed
		rds  []float64       // re-validated ΔC per window entry
		slot []int           // window entry → index in exec, -1 when it failed validation
	)
	for i := 0; i < len(ds); {
		w := batchWindow(env, ds[i:], tuner.window(len(ds)-i))
		m.window(w)
		exec, rds, slot = exec[:0], rds[:0], slot[:0]
		for _, d := range ds[i : i+w] {
			rd := env.Delta(d.VM, d.Target)
			rds = append(rds, rd)
			if rd <= m.Cm || !env.Admissible(d.VM, d.Target) {
				slot = append(slot, -1)
				continue
			}
			ex := d
			if m.kind.cross {
				ex.From, ex.Delta = env.HostOf(d.VM), rd
			}
			slot = append(slot, len(exec))
			exec = append(exec, ex)
		}
		start := time.Now()
		realized, errs := env.ApplyAll(exec)
		if len(exec) > 0 {
			tuner.observe(time.Since(start))
		}
		for k, d := range ds[i : i+w] {
			switch j := slot[k]; {
			case j < 0:
				m.drop(i+k, d, d.From, rds[k])
			case errs[j] != nil:
				m.drop(i+k, d, exec[j].From, rds[k])
			default:
				m.land(i+k, exec[j], d.Delta, realized[j])
			}
		}
		i += w
	}
}

// AuditPass binds an audit ring to a pass run on its own (MergeStaged,
// ReconcileProposals); Meta[i] aligns with the pass's input decisions.
type AuditPass struct {
	Ring  *obs.AuditRing
	Round uint32
	Meta  []AuditMeta
}

// standalone returns a one-pass Merge over env with au's audit binding.
func standalone(env Env, cm float64, au *AuditPass) (*Merge, []AuditMeta) {
	m := &Merge{Env: env, Cm: cm}
	if au == nil {
		return m, nil
	}
	m.Audit, m.Round = au.Ring, au.Round
	return m, au.Meta
}

// MergeStaged runs Merge.Shard on its own, returning the moves that
// landed and how many did not. The error is always nil.
func MergeStaged(env Env, cm float64, commits []core.Decision, au *AuditPass) (applied []core.Decision, stale int, err error) {
	m, meta := standalone(env, cm, au)
	m.Shard(-1, commits, meta)
	return m.Applied, m.StaleRejected, nil
}

// ReconcileProposals runs Merge.Cross on its own over proposals, which
// are reordered in place (with au's Meta, when aligned) into the
// canonical order.
func ReconcileProposals(env Env, cm float64, proposals []core.Decision, au *AuditPass) (applied []core.Decision, rejected []core.Decision) {
	m, meta := standalone(env, cm, au)
	m.proposals, m.propMeta = proposals, meta
	m.Cross()
	return m.Applied, m.Rejected
}
