package hypervisor

import (
	"math"
	"testing"
	"time"

	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/token"
)

// TestChaosRoundReconstructibleFromTrace is the observability acceptance
// test: a chaos run with injected token loss must be fully
// reconstructible from the trace ring buffer alone. Folding the buffer
// into round spans has to reproduce what RoundReport says happened —
// regeneration counts, per-shard attempt numbers, hop counts, spurious
// witnesses, merge verdicts and evictions — and the shared registry's
// counters must agree with both.
func TestChaosRoundReconstructibleFromTrace(t *testing.T) {
	reg := obs.NewRegistry()
	pm := NewPlaneMetrics(reg)
	tr := obs.NewTracer(1 << 16)
	ar := obs.NewAuditRing(1 << 16)
	plan := NewFaultPlan(FaultConfig{
		Seed:      42,
		DropEvery: 12,
		Types:     []MsgType{MsgShardToken},
	})
	p := buildShardPlaneOpts(t, 4, 7, 10, 4, token.HighestLevelFirst{}, planeOpts{
		faults:        plan,
		shardDeadline: 50 * time.Millisecond,
		metrics:       pm,
		trace:         tr,
		audit:         ar,
	})
	applied, reports := distributedRounds(t, p)
	if len(applied) == 0 {
		t.Fatal("no migrations; trace reconstruction vacuous")
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("trace buffer overwrote %d events; reconstruction cannot be total", d)
	}

	spans := obs.Spans(tr.Snapshot())
	if len(spans) != len(reports) {
		t.Fatalf("trace folds into %d round spans, reconciler ran %d rounds", len(spans), len(reports))
	}

	totalRegens, totalSpurious := 0, 0
	for i, rep := range reports {
		sp := spans[i]
		if sp.Round != rep.Number {
			t.Fatalf("span %d carries round %d, report says %d", i, sp.Round, rep.Number)
		}
		if sp.StartNS == 0 || sp.EndNS == 0 || sp.Latency <= 0 {
			t.Fatalf("round %d span missing start/end bracketing: %+v", rep.Number, sp)
		}

		// Fault recovery: regeneration totals, per-shard attempt numbers
		// and evictions must be recoverable from the events alone.
		if sp.Regens() != rep.Regenerated {
			t.Fatalf("round %d: trace shows %d regenerations, report %d", rep.Number, sp.Regens(), rep.Regenerated)
		}
		if len(sp.Evicted) != len(rep.Evicted) {
			t.Fatalf("round %d: trace evicted %v, report %v", rep.Number, sp.Evicted, rep.Evicted)
		}
		evicted := make(map[int64]bool, len(sp.Evicted))
		for _, h := range sp.Evicted {
			evicted[h] = true
		}
		for _, h := range rep.Evicted {
			if !evicted[int64(h)] {
				t.Fatalf("round %d: report evicted host %d absent from trace %v", rep.Number, h, sp.Evicted)
			}
		}
		for _, ring := range rep.Rings {
			ss := sp.Shard(ring.Shard)
			if ss == nil {
				t.Fatalf("round %d: shard %d has no trace span", rep.Number, ring.Shard)
			}
			if !ss.Done {
				t.Fatalf("round %d shard %d: ring completed but trace has no ring_done", rep.Number, ring.Shard)
			}
			if ss.Hops != ring.Hops {
				t.Fatalf("round %d shard %d: trace hops %d, report %d", rep.Number, ring.Shard, ss.Hops, ring.Hops)
			}
			if ss.Regens != ring.Regenerated {
				t.Fatalf("round %d shard %d: trace regens %d, report %d", rep.Number, ring.Shard, ss.Regens, ring.Regenerated)
			}
			// Attempts start at 0 and advance once per regeneration, so
			// the highest attempt number in the stream is the per-shard
			// regeneration count.
			if ss.LastAttempt != uint32(ring.Regenerated) {
				t.Fatalf("round %d shard %d: trace last attempt %d, report regenerated %d",
					rep.Number, ring.Shard, ss.LastAttempt, ring.Regenerated)
			}
			if ss.Spurious != ring.Spurious {
				t.Fatalf("round %d shard %d: trace spurious %d, report %d", rep.Number, ring.Shard, ss.Spurious, ring.Spurious)
			}
		}

		// Merge outcomes: every verdict event matches the report's
		// accounting. Cross-rejections are traced only for proposals that
		// reached reconciliation (eviction-dropped ones are not), so the
		// equality below is exact in eviction-free rounds.
		merged := 0
		for _, ring := range rep.Rings {
			merged += ring.Merged
		}
		if sp.Merged != merged {
			t.Fatalf("round %d: trace merged %d, report %d", rep.Number, sp.Merged, merged)
		}
		if sp.Stale != rep.StaleRejected {
			t.Fatalf("round %d: trace stale %d, report %d", rep.Number, sp.Stale, rep.StaleRejected)
		}
		if sp.CrossApplied != rep.CrossApplied {
			t.Fatalf("round %d: trace cross-applied %d, report %d", rep.Number, sp.CrossApplied, rep.CrossApplied)
		}
		if len(rep.Evicted) == 0 && sp.CrossRejected != rep.CrossRejected {
			t.Fatalf("round %d: trace cross-rejected %d, report %d", rep.Number, sp.CrossRejected, rep.CrossRejected)
		}
		totalRegens += rep.Regenerated
		totalSpurious += rep.SpuriousRegens
	}
	if totalRegens == 0 {
		t.Fatal("chaos schedule injected no regenerations; reconstruction untested")
	}

	// The registry's counters are the same story in aggregate.
	if got := int(pm.Regens.Value()); got != totalRegens {
		t.Fatalf("registry counted %d regenerations, reports %d", got, totalRegens)
	}
	if got := int(pm.Spurious.Value()); got != totalSpurious {
		t.Fatalf("registry counted %d spurious regens, reports %d", got, totalSpurious)
	}
	if got := int(pm.Migrations.Value()); got != len(applied) {
		t.Fatalf("registry counted %d migrations, reports applied %d", got, len(applied))
	}
	if got := int(pm.Rounds.Value()); got != len(reports) {
		t.Fatalf("registry counted %d rounds, reconciler ran %d", got, len(reports))
	}
	phases := 0.0
	for name, h := range map[string]*obs.Histogram{"plan": pm.PhasePlan, "patch": pm.PhasePatch, "reset": pm.PhaseReset, "rings": pm.PhaseRings, "merge": pm.PhaseMerge, "cross": pm.PhaseCross} {
		if n := h.Count(); n != uint64(len(reports)) {
			t.Fatalf("phase %s observed %d times over %d rounds", name, n, len(reports))
		}
		phases += h.Sum()
	}
	if total := pm.RoundLatency.Sum(); math.Abs(phases-total) > 0.05*total {
		t.Fatalf("the six phases sum to %v s, the rounds took %v s", phases, total)
	}
	if pm.PhasePatch.Sum() <= 0 {
		t.Fatal("the assignment pushes took no time on the phase clock")
	}
	if pm.PhaseReset.Sum() != 0 {
		t.Fatalf("the agent plane, which keeps no views, spent %v s resetting them", pm.PhaseReset.Sum())
	}

	// Decision provenance: the applied-migration set of every round must
	// be reconstructible from the audit ring alone — each committed move
	// matched by exactly one applied-verdict record whose re-validated ΔC
	// equals the realized delta bit-for-bit.
	if d := ar.Dropped(); d != 0 {
		t.Fatalf("audit ring overwrote %d records; reconstruction cannot be total", d)
	}
	type moveKey struct {
		vm       uint32
		from, to int32
		bits     uint64
	}
	for _, rep := range reports {
		recs := ar.Select(-1, int64(rep.Number))
		decided := len(rep.Applied) + rep.StaleRejected + rep.CrossRejected
		if len(recs) == 0 && decided > 0 {
			t.Fatalf("round %d made %d decisions but left no audit records", rep.Number, decided)
		}
		want := make(map[moveKey]int, len(rep.Applied))
		for _, d := range rep.Applied {
			want[moveKey{uint32(d.VM), int32(d.From), int32(d.Target), math.Float64bits(d.Delta)}]++
		}
		got := 0
		for _, r := range recs {
			if !r.Applied() {
				continue
			}
			got++
			k := moveKey{r.VM, r.From, r.To, r.FinalBits}
			if want[k] == 0 {
				t.Fatalf("round %d: audit record vm=%d %d→%d ΔC=%v (%s) has no bit-exact committed move",
					rep.Number, r.VM, r.From, r.To, r.FinalDelta(), obs.VerdictString(r.Verdict))
			}
			want[k]--
		}
		if got != len(rep.Applied) {
			t.Fatalf("round %d: audit ring explains %d applied moves, reconciler committed %d",
				rep.Number, got, len(rep.Applied))
		}

		// Token-visit provenance under chaos: every record carries a
		// non-negative hop, and its attempt number never exceeds the
		// regeneration count of the ring that staged it.
		regenBy := make(map[int16]int, len(rep.Rings))
		for _, ring := range rep.Rings {
			regenBy[int16(ring.Shard)] = ring.Regenerated
		}
		for _, r := range recs {
			if r.Hop < 0 {
				t.Fatalf("round %d: audit record vm=%d missing token hop", rep.Number, r.VM)
			}
			if int(r.Attempt) > regenBy[r.Shard] {
				t.Fatalf("round %d shard %d: audit attempt %d exceeds ring regenerations %d",
					rep.Number, r.Shard, r.Attempt, regenBy[r.Shard])
			}
		}
	}
}

// TestTraceEvictionVisible: a crashed dom0's eviction must surface in the
// trace buffer — the evict event names the victim host in the same round
// the report does.
func TestTraceEvictionVisible(t *testing.T) {
	tr := obs.NewTracer(1 << 16)
	plan := NewFaultPlan(FaultConfig{Seed: 5})
	p := buildShardPlaneOpts(t, 4, 11, 10, 4, token.RoundRobin{}, planeOpts{
		faults:        plan,
		probeTimeout:  25 * time.Millisecond,
		shardDeadline: 300 * time.Millisecond,
		trace:         tr,
	})
	victim := p.agents[0].Addr()
	plan.Isolate(victim)

	rep, err := p.rec.RunRound()
	if err != nil {
		t.Fatalf("crash round did not complete: %v", err)
	}
	if len(rep.Evicted) == 0 {
		t.Skip("isolation produced no eviction this seed; nothing to reconstruct")
	}
	spans := obs.Spans(tr.Snapshot())
	if len(spans) != 1 {
		t.Fatalf("expected 1 round span, got %d", len(spans))
	}
	sp := spans[0]
	if len(sp.Evicted) != len(rep.Evicted) {
		t.Fatalf("trace evicted %v, report %v", sp.Evicted, rep.Evicted)
	}
	seen := make(map[int64]bool, len(sp.Evicted))
	for _, h := range sp.Evicted {
		seen[h] = true
	}
	for _, h := range rep.Evicted {
		if !seen[int64(h)] {
			t.Fatalf("report evicted host %d missing from trace %v", h, sp.Evicted)
		}
	}
}
