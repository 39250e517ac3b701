package shard

import (
	"math"
	"slices"
	"sort"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/obs"
)

// Merge is the merge phase of one scheduling round — everything between
// "the rings have finished" and "the round is reported" — and the one
// piece of code both scheduler planes run for it (see the package
// documentation for what a plane supplies). The Driver calls Propose with
// every ring's cross-shard proposals, then, in shard order, Shard with
// each ring's staged intra-shard commits while the queue is sorted beside
// them; then Cross once; then Finish. Every decision is checked against
// the state the one before it left (ΔC > Cm and admissible: Theorem 1
// for everything that lands), applied, and recorded where that verdict
// is reached — one obs.AuditRecord and one obs.EvVerdict event per
// decision, in decision order. A staged commit the clean rule covers
// (package doc) reads exactly the state it was staged against, so its
// staged verdict is that check; every other decision is re-validated.
//
// The zero value with Env and Cm set is ready to use. A Merge may be
// kept and Reset between rounds; it is not safe for concurrent use.
type Merge struct {
	// Env is the authoritative allocation; Cm is Theorem 1's c_m.
	Env Env
	Cm  float64
	// Round tags every audit record and trace event of the phase.
	Round uint32
	// The plane's observability sinks; a nil one is an untaken branch.
	Audit   *obs.AuditRing
	Trace   *obs.Tracer
	Metrics *Metrics

	// Outcome is the phase's result so far; the Driver copies it into the
	// Round, lending it the Applied list (see Reset).
	Outcome
	// Rejected lists, in decision order and as handed in, every
	// re-validated move that did not land — in a round the Driver
	// reserved, once Cross has run. Scratch, valid until Reset.
	Rejected []core.Decision
	// Proposed counts the cross-shard proposals handed in.
	Proposed int

	// shared is set once reserve has sized Applied's storage to every
	// decision of the round: a decision lands or is dropped, so the drops
	// fill that storage from its end, newest first, down to back, and
	// Cross puts them in order as Rejected.
	shared bool
	back   int

	// proposals/propMeta gather the rings' proposals until Cross; ordered
	// is set once order has sorted them, and cleared by Propose.
	proposals []core.Decision
	propMeta  []AuditMeta
	ordered   bool

	// The pass in progress: its kind, the shard its trace events carry,
	// the provenance aligned with its input, the one clock read its audit
	// records share (per-record time.Now() shows at ~65k a round), and
	// whether its ring's marks attest its staged verdicts (Marks).
	kind     passKind
	shard    int16
	meta     []AuditMeta
	t        int64
	attested bool

	// patched is when the plane's ring lists were up to date (patch) and
	// prepared when its rings became ready to run (Prepared), read only
	// with Metrics set.
	patched, prepared time.Time

	// near is the union of the marks of the rings merged so far this
	// round, over the window from nearBase; clean counts the round's
	// commits taken on their staged verdict.
	near     []uint64
	nearBase cluster.VMID
	clean    int
}

// Marks are a ring's near marks (core.AllocView.Near): bit i of Words is
// set when one of its staged commits moved VM Base+i or a peer of it.
// They attest that each commit was staged against the round's starting
// placement plus the ring's earlier commits; the zero Marks attest
// nothing. A plane hands in marks over one window for every ring, or none.
type Marks struct {
	Base  cluster.VMID
	Words []uint64
}

// Outcome is what a merge phase did — the part of a Round the merge
// reports.
type Outcome struct {
	// Applied lists every migration executed, in application order:
	// staged intra-shard commits in shard order, then reconciled
	// cross-shard proposals in the canonical order. Delta carries the ΔC
	// realized at apply time; RealizedDelta is their sum. The list is
	// lent by the Merge that filled it and is valid until its next Reset
	// (for a Driver, the next RunRound): a caller that keeps it longer
	// keeps a copy.
	Applied       []core.Decision
	RealizedDelta float64
	// StaleRejected counts staged intra-shard moves that did not land (an
	// earlier-merged shard's migrations invalidated them, Apply refused,
	// or the plane withdrew them); CrossApplied / CrossRejected count the
	// cross-shard proposals' outcomes, withdrawn ones among the rejected.
	StaleRejected, CrossApplied, CrossRejected int
}

// AuditMeta is per-decision provenance riding alongside the decisions a
// plane hands in: the ring that staged the move, the token attempt it
// was staged under, and the 0-based token-visit hop at staging time (-1
// when untracked). The in-process plane fills it in ringPass, the agent
// plane from the StagedMove wire fields. A nil or short meta slice
// records unknown provenance (-1 hop/shard) rather than failing.
type AuditMeta struct {
	Hop     int32
	Attempt uint32
	Shard   int16
}

// passKind is all that tells a ring's staged-commit replay from the
// cross-shard proposal pass in the replay loop of reconcile.go.
type passKind struct {
	landed, dropped uint8 // verdict codes
	// cross marks the proposal pass: the move executed carries the VM's
	// host and ΔC as re-read at apply time, not as staged against frozen
	// remote state; and no view staged it, so a rejection is not
	// reported to a RejectObserver.
	cross bool
}

var (
	stagedPass = passKind{landed: obs.VerdictMerged, dropped: obs.VerdictStale}
	crossPass  = passKind{landed: obs.VerdictCrossApplied, dropped: obs.VerdictCrossRejected, cross: true}
)

// Reset starts the next round's phase: the outcome is cleared, the sinks,
// Env and scratch storage are kept. The Applied list keeps its storage
// too, so the list the previous round lent out is overwritten from here
// on (under the scorecheck build tag, with garbage first: see poison).
func (m *Merge) Reset(round uint32) {
	m.Round = round
	if poison != nil {
		poison(m.Applied)
	}
	m.Outcome, m.Proposed = Outcome{Applied: m.Applied[:0]}, 0
	if m.shared {
		m.Rejected, m.shared = nil, false // it was Applied's storage
	}
	m.Rejected = m.Rejected[:0]
	m.proposals, m.propMeta, m.ordered = m.proposals[:0], m.propMeta[:0], false
	clear(m.near)
	m.clean = 0
	m.patched, m.prepared = time.Time{}, time.Time{}
}

// patch ends the round's patch phase on the phase clock: the in-process
// plane calls it from Run once the ring bitmaps follow the placement,
// before it resets the views. A plane that never calls it spends no time
// in the reset phase.
func (m *Merge) patch() {
	if m.Metrics != nil {
		m.patched = time.Now()
	}
}

// Prepared ends the round's reset phase on the phase clock: a plane
// calls it from Run once its rings are ready, before any of them runs. A
// plane that never calls it spends the round's run in the rings phase.
func (m *Merge) Prepared() {
	if m.Metrics != nil {
		m.prepared = time.Now()
	}
}

// reserve sizes the round's lists once, before the first Shard, to what
// the rings handed in can put in them: Applied, with Rejected from its
// end, to every decision, staged commit or proposal, the proposal queue
// to the proposals and its provenance to the metas the rings supplied. A
// list already that large keeps its storage; none grows by append after.
func (m *Merge) reserve(decisions, proposals, metas int) {
	m.Applied = reserved(m.Applied, decisions)
	m.shared, m.back = true, cap(m.Applied)
	m.proposals = reserved(m.proposals, proposals)
	m.propMeta = reserved(m.propMeta, metas)
}

// reserved returns s, emptied, with room for n elements: its own storage
// when that is large enough, else one allocation of append's amortized
// size, so rounds whose decisions creep up do not each reallocate it.
func reserved[T any](s []T, n int) []T { return slices.Grow(s[:0], n) }

// Shard replays ring s's staged intra-shard commits, with near the ring's
// marks, and returns how many landed. A staged ΔC was computed against
// frozen cross-shard peer positions and an earlier-merged shard may have
// moved a peer since; with a single shard the re-check is exact and never
// fires. A commit that fails it, or whose Apply errors — in the
// distributed env, commit retries exhausted against an unresponsive dom0
// — is dropped as stale without discarding the round's remaining work.
func (m *Merge) Shard(s int, commits []core.Decision, meta []AuditMeta, near Marks) (merged int) {
	before := len(m.Applied)
	m.attested, m.nearBase = near.Words != nil, near.Base
	m.pass(stagedPass, int16(s), commits, meta)
	m.attested = false
	if len(commits) > 0 { // a ring that staged nothing marked nothing
		if len(m.near) < len(near.Words) {
			m.near = append(m.near, make([]uint64, len(near.Words)-len(m.near))...)
		}
		for w, x := range near.Words {
			m.near[w] |= x
		}
	}
	return len(m.Applied) - before
}

// nearMarked reports whether a ring merged earlier this round marked vm
// near: moved it or a peer of it.
func (m *Merge) nearMarked(vm cluster.VMID) bool {
	i := uint(vm - m.nearBase)
	return i/64 < uint(len(m.near)) && m.near[i/64]&(1<<(i%64)) != 0
}

// Propose queues one ring's cross-shard proposals for Cross.
func (m *Merge) Propose(proposals []core.Decision, meta []AuditMeta) {
	m.proposals = append(m.proposals, proposals...)
	m.propMeta = append(m.propMeta, meta...)
	m.ordered = false
}

// Withdraw accounts for moves a plane pulled before the replay — the
// distributed plane's moves that touch a host evicted this round.
// Ring s's commits count and trace as stale, proposals count as
// cross-rejected; neither was re-validated, so neither leaves an audit
// record or enters Rejected.
func (m *Merge) Withdraw(s int, commits, proposals []core.Decision) {
	m.StaleRejected += len(commits)
	m.Proposed += len(proposals)
	m.CrossRejected += len(proposals)
	if m.Trace != nil {
		for _, d := range commits {
			m.Trace.Record(obs.Event{Kind: obs.EvVerdict, Code: obs.VerdictStale, Round: m.Round, Shard: int16(s), Arg: int64(d.VM)})
		}
	}
}

// order sorts the queued proposals, with their provenance when it is
// aligned, into the canonical order — strongest staged ΔC first, ties by
// VM then target — which every plane must share for sharded runs to be
// deterministic and comparable. A VM is decided at most once a round, so
// no two proposals tie and the order is total. It reads and writes only
// the queue, so the Driver runs it beside Shard.
func (m *Merge) order() {
	sort.Sort(proposalOrder{ps: m.proposals, meta: m.queueMeta()})
	m.ordered = true
}

// queueMeta is the queue's provenance, nil when it is not aligned.
func (m *Merge) queueMeta() []AuditMeta {
	if len(m.propMeta) != len(m.proposals) {
		return nil
	}
	return m.propMeta
}

// Cross reconciles the queued proposals in the canonical order (order).
// The Driver has the queue sorted beside the staged replay, so Cross
// sorts it only when nothing did since the last Propose.
func (m *Merge) Cross() {
	if !m.ordered {
		m.order()
	}
	m.Proposed += len(m.proposals)
	m.pass(crossPass, -1, m.proposals, m.queueMeta())
	if m.shared {
		m.Rejected = m.Applied[m.back:cap(m.Applied)]
		slices.Reverse(m.Rejected)
	}
}

// Finish closes the round: the metric families both planes share, then
// the EvRoundEnd event. start is when the round began (read only when a
// sink is attached); hops and skipped are the rings' token visits and
// the subset the visit memo skipped.
func (m *Merge) Finish(start time.Time, shards, hops, skipped int) {
	if mt := m.Metrics; mt != nil {
		mt.Rounds.Inc()
		mt.RoundLatency.Observe(time.Since(start).Seconds())
		mt.Shards.Set(float64(shards))
		mt.Hops.Add(uint64(hops))
		mt.Skipped.Add(uint64(skipped))
		mt.Evaluated.Add(uint64(hops - skipped))
		mt.Migrations.Add(uint64(len(m.Applied)))
		mt.RealizedDelta.Add(m.RealizedDelta)
		mt.CrossProposals.Add(uint64(m.Proposed))
		mt.CrossApplied.Add(uint64(m.CrossApplied))
		mt.CrossRejected.Add(uint64(m.CrossRejected))
		mt.StaleRejected.Add(uint64(m.StaleRejected))
	}
	if m.Trace != nil {
		m.Trace.Record(obs.Event{Kind: obs.EvRoundEnd, Round: m.Round, Shard: -1, Value: time.Since(start).Seconds()})
	}
}

// pass runs one replay over ds.
func (m *Merge) pass(k passKind, shard int16, ds []core.Decision, meta []AuditMeta) {
	m.kind, m.shard, m.meta, m.t = k, shard, meta, 0
	m.replay(ds)
}

// land records input decision i of the pass as applied: ex is the move
// executed, its Delta the realized ΔC; staged is the staged ΔC.
func (m *Merge) land(i int, ex core.Decision, staged float64) {
	m.Applied = append(m.Applied, ex)
	m.RealizedDelta += ex.Delta
	if m.kind.cross {
		m.CrossApplied++
	}
	m.verdict(i, true, ex.VM, ex.From, ex.Target, staged, ex.Delta)
}

// drop records input decision i of the pass as not landed: it
// re-validated to rd and failed the test, or passed and Apply refused.
// from is the source on record — as staged, or as re-read for a proposal
// that got as far as Apply.
func (m *Merge) drop(i int, d core.Decision, from cluster.HostID, rd float64) {
	if m.shared {
		m.back--
		m.Applied[:cap(m.Applied)][m.back] = d
	} else {
		m.Rejected = append(m.Rejected, d)
	}
	if m.kind.cross {
		m.CrossRejected++
	} else {
		m.StaleRejected++
		if ro, ok := m.Env.(RejectObserver); ok {
			ro.Rejected(d)
		}
	}
	m.verdict(i, false, d.VM, from, d.Target, d.Delta, rd)
}

// verdict is the one record site of the merge phase: the audit record
// and the trace event of input decision i. final is the realized ΔC of
// a landed move, the re-validated one otherwise.
func (m *Merge) verdict(i int, landed bool, vm cluster.VMID, from, to cluster.HostID, staged, final float64) {
	code := m.kind.dropped
	if landed {
		code = m.kind.landed
	}
	if m.Audit != nil {
		if m.t == 0 {
			m.t = time.Now().UnixNano()
		}
		meta := AuditMeta{Hop: -1, Shard: -1}
		if i < len(m.meta) {
			meta = m.meta[i]
		}
		m.Audit.Append(obs.AuditRecord{
			T:          m.t,
			StagedBits: math.Float64bits(staged),
			FinalBits:  math.Float64bits(final),
			VM:         uint32(vm),
			Round:      m.Round,
			Attempt:    meta.Attempt,
			Hop:        meta.Hop,
			From:       int32(from),
			To:         int32(to),
			Shard:      meta.Shard,
			Verdict:    code,
		})
	}
	if m.Trace != nil {
		ev := obs.Event{Kind: obs.EvVerdict, Code: code, Round: m.Round, Shard: m.shard, Arg: int64(vm)}
		if landed {
			ev.Value = final
		}
		m.Trace.Record(ev)
	}
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
