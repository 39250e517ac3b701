package shard

import (
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
