package shard

import (
	"fmt"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/token"
)

// fakeState is a tiny authoritative allocation: VM i sits at host i-1,
// ΔC comes from a per-VM base gain that halves whenever one of the VM's
// peers (i±1) has already moved — so a replay that validates a decision
// against any state but the one the previous decision left produces a
// different float.
type fakeState struct {
	hosts   map[cluster.VMID]cluster.HostID
	base    map[cluster.VMID]float64
	peerTab map[cluster.VMID][]cluster.VMID
	moved   map[cluster.VMID]bool
	fail    map[cluster.VMID]bool // VMs whose Apply errors, leaving the state untouched
}

func newFakeState(n int) *fakeState {
	s := &fakeState{
		hosts:   map[cluster.VMID]cluster.HostID{},
		base:    map[cluster.VMID]float64{},
		peerTab: map[cluster.VMID][]cluster.VMID{},
		moved:   map[cluster.VMID]bool{},
	}
	for i := 0; i < n; i++ {
		vm := cluster.VMID(i + 1)
		s.hosts[vm] = cluster.HostID(i)
		s.base[vm] = float64(n/2 - i) // later proposals go non-positive
		if i > 0 {
			s.peerTab[vm] = append(s.peerTab[vm], cluster.VMID(i))
		}
		if i+2 <= n {
			s.peerTab[vm] = append(s.peerTab[vm], cluster.VMID(i+2))
		}
	}
	return s
}

func (s *fakeState) delta(vm cluster.VMID) float64 {
	d := s.base[vm]
	for _, p := range s.peerTab[vm] {
		if s.moved[p] {
			d /= 2
		}
	}
	return d
}

func (s *fakeState) apply(d core.Decision) (float64, error) {
	if s.fail[d.VM] {
		return 0, fmt.Errorf("fake: commit of VM %d refused", d.VM)
	}
	realized := s.delta(d.VM)
	s.hosts[d.VM] = d.Target
	s.moved[d.VM] = true
	return realized, nil
}

// seqEnv exposes fakeState as the merge phase's Env; every target admits.
type seqEnv struct{ s *fakeState }

func (e seqEnv) Delta(vm cluster.VMID, _ cluster.HostID) float64 { return e.s.delta(vm) }
func (e seqEnv) Admissible(cluster.VMID, cluster.HostID) bool    { return true }
func (e seqEnv) HostOf(vm cluster.VMID) cluster.HostID           { return e.s.hosts[vm] }
func (e seqEnv) Apply(d core.Decision) (float64, error)          { return e.s.apply(d) }

func proposalsFor(n int) []core.Decision {
	ps := make([]core.Decision, 0, n)
	for i := 0; i < n; i++ {
		vm := cluster.VMID(i + 1)
		ps = append(ps, core.Decision{
			VM:     vm,
			From:   cluster.HostID(i),
			Target: cluster.HostID(i + 1000),
			Delta:  float64(n/2 - i),
		})
	}
	return ps
}

// TestMergePhaseReplay hands two rings' staged output to the merge phase.
// The input holds a commit that goes stale once the earlier shard has
// merged, a commit and a proposal whose Apply errors, and a proposal that
// re-validates to a loss. The replay's spec is the golden outcome below:
// Applied bit for bit, the tallies, the abort list, the stale events
// naming their VMs, and audit records and EvVerdict events telling the
// same story decision by decision.
func TestMergePhaseReplay(t *testing.T) {
	const (
		n     = 12
		cm    = 1.0
		round = 7
	)
	// VM v sits at host v-1 with peers v±1; ΔC is base halved per moved
	// peer (see fakeState).
	newState := func() *fakeState {
		s := newFakeState(n)
		for v := range s.base {
			s.base[v] = 8
		}
		s.base[4] = 3    // 0.75 once peers 3 and 5 have merged: stale
		s.base[10] = 1.5 // 0.75 once peer 11 has merged: cross-rejected
		s.fail = map[cluster.VMID]bool{9: true, 12: true}
		return s
	}
	move := func(vm int, staged float64) core.Decision {
		// From is what the ring saw; proposals must not trust it.
		return core.Decision{VM: cluster.VMID(vm), From: cluster.HostID(vm - 1), Target: cluster.HostID(vm + 1000), Delta: staged}
	}
	far := func(vm int, staged float64) core.Decision {
		d := move(vm, staged)
		d.From = 999
		return d
	}
	type ring struct {
		commits, proposals []core.Decision
	}
	rings := []ring{
		{commits: []core.Decision{move(1, 8), move(3, 8), move(5, 8)}, proposals: []core.Decision{far(7, 5)}},
		{commits: []core.Decision{move(2, 8), move(4, 3), move(9, 8), move(11, 8)}, proposals: []core.Decision{far(8, 9), far(10, 6), far(12, 7)}},
	}
	metaFor := func(s int, ds []core.Decision, hop0 int32) []AuditMeta {
		meta := make([]AuditMeta, len(ds))
		for i := range ds {
			meta[i] = AuditMeta{Hop: hop0 + int32(i), Attempt: uint32(s), Shard: int16(s)}
		}
		return meta
	}

	type outcome struct {
		m       *Merge
		audit   []obs.AuditRecord
		verdict []obs.Event
	}
	run := func(t *testing.T, env Env) outcome {
		ar, tr := obs.NewAuditRing(64), obs.NewTracer(64)
		m := &Merge{Env: env, Cm: cm, Round: round, Audit: ar, Trace: tr}
		for s, r := range rings {
			// The phase reorders what it is handed; hand it copies.
			commits := append([]core.Decision(nil), r.commits...)
			proposals := append([]core.Decision(nil), r.proposals...)
			m.Shard(s, commits, metaFor(s, commits, 0))
			m.Propose(proposals, metaFor(s, proposals, 100))
		}
		m.Cross()
		out := outcome{m: m, audit: ar.Snapshot()}
		for i := range out.audit {
			out.audit[i].T = 0
		}
		for _, e := range tr.Snapshot() {
			if e.Kind == obs.EvVerdict {
				e.T = 0
				out.verdict = append(out.verdict, e)
			}
		}
		sp := obs.Spans(tr.Snapshot())
		if len(sp) != 1 || sp[0].Round != round {
			t.Fatalf("trace folds into %+v, want one span for round %d", sp, round)
		}
		if sp[0].Merged != len(m.Applied)-m.CrossApplied || sp[0].Stale != m.StaleRejected ||
			sp[0].CrossApplied != m.CrossApplied || sp[0].CrossRejected != m.CrossRejected {
			t.Fatalf("span %+v disagrees with the phase's tallies %+v", sp[0], m)
		}
		return out
	}

	seq := run(t, seqEnv{newState()})

	wantApplied := []core.Decision{
		{VM: 1, From: 0, Target: 1001, Delta: 8}, {VM: 3, From: 2, Target: 1003, Delta: 8}, {VM: 5, From: 4, Target: 1005, Delta: 8},
		{VM: 2, From: 1, Target: 1002, Delta: 2}, {VM: 11, From: 10, Target: 1011, Delta: 8},
		{VM: 8, From: 7, Target: 1008, Delta: 8}, {VM: 7, From: 6, Target: 1007, Delta: 4},
	}
	if len(seq.m.Applied) != len(wantApplied) {
		t.Fatalf("applied %+v, want %+v", seq.m.Applied, wantApplied)
	}
	for i, d := range wantApplied {
		if seq.m.Applied[i] != d {
			t.Fatalf("applied[%d] = %+v, want %+v", i, seq.m.Applied[i], d)
		}
	}
	if m := seq.m; m.StaleRejected != 2 || m.CrossApplied != 2 || m.CrossRejected != 2 || m.Proposed != 4 || m.RealizedDelta != 46 {
		t.Fatalf("tallies stale=%d crossApplied=%d crossRejected=%d proposed=%d realized=%v",
			m.StaleRejected, m.CrossApplied, m.CrossRejected, m.Proposed, m.RealizedDelta)
	}
	wantRejected := []cluster.VMID{4, 9, 12, 10}
	if len(seq.m.Rejected) != len(wantRejected) {
		t.Fatalf("rejected %+v, want VMs %v", seq.m.Rejected, wantRejected)
	}
	for i, vm := range wantRejected {
		if seq.m.Rejected[i].VM != vm {
			t.Fatalf("rejected[%d] = %+v, want VM %d", i, seq.m.Rejected[i], vm)
		}
	}
	var staleVMs []int64
	for _, e := range seq.verdict {
		if e.Code == obs.VerdictStale {
			staleVMs = append(staleVMs, e.Arg)
		}
	}
	if len(staleVMs) != 2 || staleVMs[0] != 4 || staleVMs[1] != 9 {
		t.Fatalf("stale verdict events name VMs %v, want [4 9]", staleVMs)
	}
	if len(seq.audit) != 11 || len(seq.verdict) != 11 {
		t.Fatalf("%d audit records and %d verdict events for 11 decisions", len(seq.audit), len(seq.verdict))
	}
	for i, r := range seq.audit {
		e := seq.verdict[i]
		if int64(r.VM) != e.Arg || r.Verdict != e.Code {
			t.Fatalf("decision %d: audit record %+v and trace event %+v tell different stories", i, r, e)
		}
		if r.Hop < 0 || r.Attempt != uint32(r.Shard) {
			t.Fatalf("decision %d: provenance lost: %+v", i, r)
		}
	}
	// The proposal whose Apply errored got as far as re-reading its
	// source; the one that failed re-validation is recorded as staged.
	for _, r := range seq.audit {
		switch r.VM {
		case 12:
			if r.From != 11 {
				t.Fatalf("apply-refused proposal recorded from host %d, want the re-read 11", r.From)
			}
		case 10:
			if r.From != 999 {
				t.Fatalf("re-validation-rejected proposal recorded from host %d, want the staged 999", r.From)
			}
		}
	}

}

// TestCoordinatorVerdictTraceFollowsAudit: the coordinator's round leaves
// one EvVerdict event per audit record, in the same (decision) order and
// telling the same story — so the stale verdict names its VM — and the
// trace folds back into the round's own tallies.
func TestCoordinatorVerdictTraceFollowsAudit(t *testing.T) {
	eng := staleInstance(t, core.DefaultConfig())
	ar, tr := obs.NewAuditRing(1<<10), obs.NewTracer(1<<10)
	coord, err := NewCoordinator(eng, Config{
		Shards: 2, Granularity: ByRack, Workers: 2,
		NewPolicy: func(int) token.Policy { return token.RoundRobin{} },
		Audit:     ar, Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	r, err := coord.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if r.StaleRejected != 1 || len(r.Applied) == 0 {
		t.Fatalf("round stale-rejected %d and applied %d: the scenario no longer forces a rejection", r.StaleRejected, len(r.Applied))
	}
	var verdicts []obs.Event
	for _, e := range tr.Snapshot() {
		if e.Kind == obs.EvVerdict {
			verdicts = append(verdicts, e)
		}
	}
	recs := ar.Snapshot()
	if len(verdicts) != len(recs) || len(recs) != len(r.Applied)+r.StaleRejected+r.CrossRejected {
		t.Fatalf("%d verdict events, %d audit records, %d decisions", len(verdicts), len(recs), len(r.Applied)+r.StaleRejected+r.CrossRejected)
	}
	for i, rec := range recs {
		e := verdicts[i]
		if e.Arg != int64(rec.VM) || e.Code != rec.Verdict || (rec.Applied() && e.Value != rec.FinalDelta()) {
			t.Fatalf("decision %d: trace event %+v, audit record %+v", i, e, rec)
		}
		if rec.Verdict == obs.VerdictStale && e.Shard != rec.Shard {
			t.Fatalf("stale verdict traced under shard %d, staged by shard %d", e.Shard, rec.Shard)
		}
	}
	sp := obs.Spans(tr.Snapshot())
	if len(sp) != 1 || sp[0].Merged+sp[0].CrossApplied != len(r.Applied) || sp[0].Stale != r.StaleRejected ||
		sp[0].CrossApplied != r.CrossApplied || sp[0].CrossRejected != r.CrossRejected {
		t.Fatalf("trace folds into %+v, round reports %+v", sp, r)
	}
}

// TestMergeWithdraw: moves a plane pulls before the replay are counted
// with the rejected ones, and the withdrawn commits' stale events name
// their VMs; nothing was re-validated, so there is no audit record and
// nothing to abort.
func TestMergeWithdraw(t *testing.T) {
	ar, tr := obs.NewAuditRing(16), obs.NewTracer(16)
	m := &Merge{Env: seqEnv{newFakeState(4)}, Round: 3, Audit: ar, Trace: tr}
	m.Withdraw(1, proposalsFor(2), proposalsFor(3))
	m.Cross()
	if m.StaleRejected != 2 || m.CrossRejected != 3 || m.Proposed != 3 || len(m.Rejected) != 0 || ar.Len() != 0 {
		t.Fatalf("stale=%d crossRejected=%d proposed=%d rejected=%d audit=%d",
			m.StaleRejected, m.CrossRejected, m.Proposed, len(m.Rejected), ar.Len())
	}
	evs := tr.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("%d trace events, want the 2 withdrawn commits", len(evs))
	}
	for i, e := range evs {
		if e.Kind != obs.EvVerdict || e.Code != obs.VerdictStale || e.Arg != int64(i+1) || e.Shard != 1 || e.Round != 3 {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
}
