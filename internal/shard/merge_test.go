package shard

import (
	"testing"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/token"
)

// TestMergePhaseSequentialEqualsWindowed hands the same two rings' staged
// output to the merge phase over a plain Env (sequential replay) and over
// a BatchEnv (windowed replay, at several window caps). The input holds a
// commit that goes stale once the earlier shard has merged, a commit and
// a proposal whose Apply errors, and a proposal that re-validates to a
// loss. Both paths must produce bit-identical Applied, the same tallies
// and abort list, the same audit records (every field but T) and the
// same EvVerdict sequence — with every stale event naming its VM.
func TestMergePhaseSequentialEqualsWindowed(t *testing.T) {
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
		windows int
	}
	run := func(t *testing.T, env Env) outcome {
		ar, tr := obs.NewAuditRing(64), obs.NewTracer(64)
		m := &Merge{Env: env, Cm: cm, Round: round, Audit: ar, Trace: tr}
		for s, r := range rings {
			// The phase reorders what it is handed; every run gets its own copy.
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
			switch e.Kind {
			case obs.EvVerdict:
				e.T = 0
				out.verdict = append(out.verdict, e)
			case obs.EvMergeWindow:
				out.windows++
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

	seqState := newState()
	seq := run(t, seqEnv{seqState})
	if seq.windows != 0 {
		t.Fatalf("plain Env took the windowed replay (%d windows)", seq.windows)
	}

	// What the scenario is built to produce, so the equality below is not
	// vacuous.
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

	for name, rtt := range map[string]float64{
		"unobserved":   0,
		"narrow(w=1)":  float64(time.Millisecond),
		"derived":      float64(50 * time.Millisecond),
		"clamped(max)": float64(10 * time.Second),
	} {
		t.Run(name, func(t *testing.T) {
			batState := newState()
			bat := run(t, &batEnv{s: batState, tuner: &BatchTuner{rttNS: rtt}})
			if bat.windows == 0 {
				t.Fatal("BatchEnv took the sequential replay")
			}
			if len(bat.m.Applied) != len(seq.m.Applied) {
				t.Fatalf("applied %d moves, sequential %d", len(bat.m.Applied), len(seq.m.Applied))
			}
			for i := range seq.m.Applied {
				if bat.m.Applied[i] != seq.m.Applied[i] {
					t.Fatalf("applied[%d] = %+v, sequential %+v", i, bat.m.Applied[i], seq.m.Applied[i])
				}
			}
			if bat.m.RealizedDelta != seq.m.RealizedDelta || bat.m.StaleRejected != seq.m.StaleRejected ||
				bat.m.CrossApplied != seq.m.CrossApplied || bat.m.CrossRejected != seq.m.CrossRejected || bat.m.Proposed != seq.m.Proposed {
				t.Fatalf("tallies differ: windowed %+v, sequential %+v", bat.m, seq.m)
			}
			if len(bat.m.Rejected) != len(seq.m.Rejected) {
				t.Fatalf("rejected %+v, sequential %+v", bat.m.Rejected, seq.m.Rejected)
			}
			for i := range seq.m.Rejected {
				if bat.m.Rejected[i] != seq.m.Rejected[i] {
					t.Fatalf("rejected[%d] = %+v, sequential %+v", i, bat.m.Rejected[i], seq.m.Rejected[i])
				}
			}
			if len(bat.audit) != len(seq.audit) || len(bat.verdict) != len(seq.verdict) {
				t.Fatalf("%d audit records / %d verdict events, sequential %d / %d",
					len(bat.audit), len(bat.verdict), len(seq.audit), len(seq.verdict))
			}
			for i := range seq.audit {
				if bat.audit[i] != seq.audit[i] {
					t.Fatalf("audit[%d] = %+v, sequential %+v", i, bat.audit[i], seq.audit[i])
				}
				if bat.verdict[i] != seq.verdict[i] {
					t.Fatalf("verdict[%d] = %+v, sequential %+v", i, bat.verdict[i], seq.verdict[i])
				}
			}
			for vm, h := range seqState.hosts {
				if batState.hosts[vm] != h {
					t.Fatalf("final HostOf(%d) = %d, sequential %d", vm, batState.hosts[vm], h)
				}
			}
		})
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
