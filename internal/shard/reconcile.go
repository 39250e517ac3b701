package shard

import (
	"fmt"
	"math"

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
// host, and Apply executes the move. Apply does not price it: d.Delta is
// the ΔC the merge validated against the state Apply changes, which is
// the realized one. Calls are strictly sequential.
type Env interface {
	Delta(vm cluster.VMID, target cluster.HostID) float64
	Admissible(vm cluster.VMID, target cluster.HostID) bool
	HostOf(vm cluster.VMID) cluster.HostID
	Apply(d core.Decision) error
}

// EngineEnv returns eng as the reconciliation Env: the engine prices,
// admits and locates, and Apply moves the VM in the engine's cluster. It
// is a RejectObserver through the engine.
func EngineEnv(eng *core.Engine) Env { return engineEnv{eng} }

type engineEnv struct{ *core.Engine }

func (e engineEnv) Apply(d core.Decision) error { return e.Cluster().Move(d.VM, d.Target) }

var _ RejectObserver = engineEnv{}

// RejectObserver is optionally implemented by an Env that must learn
// which staged commits the merge dropped (re-validation failed, or Apply
// did). core.Engine implements it: verdicts a view memoized after staging
// such a commit were computed against a move that never happened.
type RejectObserver interface {
	Rejected(d core.Decision)
}

// replay is the sequential replay loop: each decision of the pass is
// re-validated against the state the previous one left, applied, and
// its verdict recorded, in input order; a staged commit the clean rule
// covers (package doc) lands on its staged verdict instead.
func (m *Merge) replay(ds []core.Decision) {
	env, attested := m.Env, m.attested
	for i, d := range ds {
		rd := d.Delta
		if attested && !m.nearMarked(d.VM) {
			m.clean++
			if checkClean {
				m.recheck(d)
			}
		} else {
			rd = env.Delta(d.VM, d.Target)
			if rd <= m.Cm || !env.Admissible(d.VM, d.Target) {
				m.drop(i, d, d.From, rd)
				attested = false
				continue
			}
		}
		ex := d
		ex.Delta = rd
		if m.kind.cross {
			ex.From = env.HostOf(d.VM)
		}
		if err := env.Apply(ex); err != nil {
			m.drop(i, d, ex.From, rd)
			attested = false
			continue
		}
		m.land(i, ex, d.Delta)
	}
}

// checkClean makes the merge re-validate every commit it lands on its
// staged verdict, and panic unless the verdict holds bit for bit — the
// differential check of the clean rule. Tests only: the scorecheck build
// tag sets it.
var checkClean bool

func (m *Merge) recheck(d core.Decision) {
	rd := m.Env.Delta(d.VM, d.Target)
	if math.Float64bits(rd) != math.Float64bits(d.Delta) || !m.Env.Admissible(d.VM, d.Target) {
		panic(fmt.Sprintf("shard: clean commit %+v re-validates to ΔC %v (admissible %v)", d, rd, m.Env.Admissible(d.VM, d.Target)))
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
	m.Shard(-1, commits, meta, Marks{})
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
