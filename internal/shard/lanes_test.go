package shard_test

import (
	"fmt"
	"slices"
	"testing"

	"github.com/score-dc/score/internal/control"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/experiments"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/shard"
)

// laneRun is what one run of rounds reported: per round the applied and
// the rejected moves, and over the run the audit records and EvVerdict
// events with their clock readings zeroed, and the proposals queued.
type laneRun struct {
	applied, rejected [][]core.Decision
	audit             []obs.AuditRecord
	verdicts          []obs.Event
	proposed          int
}

// runLanes runs the auto-tuned coordinator with every sink attached and a
// pool of workers over the k-ary fat-tree of the scale benchmarks (30 VMs
// per host, sparse traffic): the cold rounds from the initial placement
// until a round applies nothing, then one more quiet round.
func runLanes(t *testing.T, k, workers int) *laneRun {
	t.Helper()
	sc, err := experiments.NewFatTreeScenario(k, 30, experiments.Sparse, 20140630)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := control.New(sc.Topo, control.Config{})
	defer ctrl.Bind(sc.TM, sc.Cl)()
	au, tr := obs.NewAuditRing(1<<18), obs.NewTracer(1<<18)
	coord, err := shard.NewCoordinator(sc.Eng, shard.Config{Tuner: ctrl, Audit: au, Trace: tr,
		Metrics: shard.NewMetrics(obs.NewRegistry())})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	shard.SetWorkers(coord, workers)
	run := &laneRun{}
	for quiet := 0; quiet < 2; {
		r, err := coord.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		run.applied = append(run.applied, slices.Clone(r.Applied))
		run.rejected = append(run.rejected, slices.Clone(coord.Merge.Rejected))
		run.proposed += coord.Merge.Proposed
		if len(r.Applied) == 0 {
			quiet++
		}
		if len(run.applied) == 40 {
			t.Fatalf("k=%d: %d rounds did not converge", k, len(run.applied))
		}
	}
	if au.Dropped() > 0 || tr.Dropped() > 0 {
		t.Fatalf("k=%d: the sinks overwrote %d audit records and %d events", k, au.Dropped(), tr.Dropped())
	}
	run.audit = au.Snapshot()
	for i := range run.audit {
		run.audit[i].T = 0
	}
	for _, e := range tr.Snapshot() {
		if e.Kind == obs.EvVerdict {
			e.T = 0
			run.verdicts = append(run.verdicts, e)
		}
	}
	return run
}

// TestLanesMatchInline: a round's work on the pool's helpers — the rings,
// the engine's changelog fold beside the plan, the proposals' sort beside
// the staged replay — changes nothing it reports. Over the cold rounds
// and a quiet one of the k=8 and k=16 fat-trees, with audit, trace and
// metrics attached, the applied and rejected moves of every round, the
// audit records and the EvVerdict events at 2 and 4 workers equal, bit
// for bit, those of the run whose pool has one worker, where every piece
// runs inline. Under the race detector the overlaps are held to touching
// disjoint state.
func TestLanesMatchInline(t *testing.T) {
	ks := []int{8, 16}
	if testing.Short() {
		ks = ks[:1]
	}
	for _, k := range ks {
		want := runLanes(t, k, 1)
		if want.proposed == 0 {
			t.Fatalf("k=%d: no ring proposed a cross-shard move, so no sort ran beside the replay", k)
		}
		t.Logf("k=%d: %d rounds, %d audit records, %d proposals", k, len(want.applied), len(want.audit), want.proposed)
		for _, w := range []int{2, 4} {
			got := runLanes(t, k, w)
			where := fmt.Sprintf("k=%d, %d workers", k, w)
			if len(got.applied) != len(want.applied) {
				t.Fatalf("%s: %d rounds, inline %d", where, len(got.applied), len(want.applied))
			}
			for r := range want.applied {
				if !slices.Equal(got.applied[r], want.applied[r]) {
					t.Fatalf("%s: round %d applied %d moves differing from inline's %d", where, r, len(got.applied[r]), len(want.applied[r]))
				}
				if !slices.Equal(got.rejected[r], want.rejected[r]) {
					t.Fatalf("%s: round %d rejected %d moves differing from inline's %d", where, r, len(got.rejected[r]), len(want.rejected[r]))
				}
			}
			if !slices.Equal(got.audit, want.audit) {
				t.Fatalf("%s: %d audit records differ from inline's %d", where, len(got.audit), len(want.audit))
			}
			if !slices.Equal(got.verdicts, want.verdicts) {
				t.Fatalf("%s: %d verdict events differ from inline's %d", where, len(got.verdicts), len(want.verdicts))
			}
		}
	}
}
