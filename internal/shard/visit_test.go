package shard

import (
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/token"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// kernelOnly detaches eng, so its token visits never skip: a detached
// engine hears no events, so its visit memo is inert, and its decisions
// are unchanged. Engines so treated are the BestMigration-only twins the
// tests below compare against.
func kernelOnly(eng *core.Engine) *core.Engine {
	eng.Detach()
	return eng
}

// staleInstance builds the smallest instance in which a staged
// intra-shard commit goes stale at merge. Six racks of two 3-slot
// hosts, two racks per pod, two rack-aligned shards of three racks
// each, so shard 0 = pod 0 + rack 2 and shard 1 = rack 3 + pod 2: both
// straddle pod 1.
//
//	x (VM 1, host 0) talks to w (VM 2, host 4) at 10 and to y at 3;
//	y (VM 3, host 6) talks to z (VM 4) and v (VM 5), both on host 8, at 1;
//	fillers 10–14 pack x's rack so y cannot join x.
//
// Round 1: x stages a move to w's host (rack 2, pod 1); y, deciding
// against x's frozen position in pod 0, stages a move to host 8; z and
// v, visited after y, see y next to them and settle for no move. At
// merge x lands first, which puts it in y's pod: leaving for pod 2 now
// costs y more on the x edge than it gains on z and v, and y's commit is
// stale-rejected — z's and v's verdicts rest on a move that never
// happened.
func staleInstance(t *testing.T, cfg core.Config) *core.Engine {
	t.Helper()
	topo, err := topology.NewCanonicalTree(topology.CanonicalConfig{
		Racks: 6, HostsPerRack: 2, RacksPerPod: 2, CoreSwitches: 1,
		HostLinkMbps: 1000, TorUplinkMbps: 10000, AggUplinkMbps: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.UniformHosts(topo.Hosts(), 3, 1<<20, 1000))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		vm   cluster.VMID
		host cluster.HostID
	}{{1, 0}, {2, 4}, {3, 6}, {4, 8}, {5, 8}, {10, 0}, {11, 0}, {12, 1}, {13, 1}, {14, 1}} {
		if err := cl.AddVM(cluster.VM{ID: p.vm, RAMMB: 64}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Place(p.vm, p.host); err != nil {
			t.Fatal(err)
		}
	}
	tm := traffic.NewMatrix()
	tm.Set(1, 2, 10)
	tm.Set(1, 3, 3)
	tm.Set(3, 4, 1)
	tm.Set(3, 5, 1)
	cm, err := core.NewCostModel(core.PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(topo, cm, cl, tm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestStaleRejectedCommitInvalidatesVerdicts: after a stale rejection
// the next round must decide exactly as a kernel-only run does — the
// VMs that settled next to the never-moved VM are re-evaluated.
func TestStaleRejectedCommitInvalidatesVerdicts(t *testing.T) {
	run := func(eng *core.Engine) []*Round {
		coord, err := NewCoordinator(eng, Config{
			Shards: 2, Granularity: ByRack,
			NewPolicy: func(int) token.Policy { return token.RoundRobin{} },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		var rounds []*Round
		for i := 0; i < 4; i++ {
			r, err := coord.RunRound()
			if err != nil {
				t.Fatal(err)
			}
			rounds = append(rounds, keep(r))
		}
		return rounds
	}
	cfg := core.DefaultConfig()
	got, want := run(staleInstance(t, cfg)), run(kernelOnly(staleInstance(t, cfg)))
	if want[0].StaleRejected != 1 {
		t.Fatalf("round 1 stale-rejected %d commits, want 1: the scenario no longer forces a rejection", want[0].StaleRejected)
	}
	if len(want[1].Applied) == 0 {
		t.Fatal("round 2 of the kernel-only run moves nothing: the scenario no longer needs the invalidation")
	}
	skipped := 0
	for i := range want {
		if !sameDecisions(got[i].Applied, want[i].Applied) {
			t.Errorf("round %d applied %+v, kernel-only run %+v", i+1, got[i].Applied, want[i].Applied)
		}
		if got[i].StaleRejected != want[i].StaleRejected {
			t.Errorf("round %d stale-rejected %d, kernel-only run %d", i+1, got[i].StaleRejected, want[i].StaleRejected)
		}
		for _, sh := range got[i].Shards {
			skipped += sh.Skipped
		}
		for _, sh := range want[i].Shards {
			if sh.Skipped != 0 {
				t.Fatalf("kernel-only run skipped %d visits", sh.Skipped)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("the memoized run skipped nothing")
	}
}

func sameDecisions(a, b []core.Decision) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestVisitOutcomeAccounting: every hop is counted once as skipped or
// evaluated, per ring and in score_token_visits_total, and a converged
// instance skips them all.
func TestVisitOutcomeAccounting(t *testing.T) {
	eng := buildEngine(t, 4, 31, 10)
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	coord, err := NewCoordinator(eng, Config{Shards: 4, Granularity: ByPod, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var hops, skipped int
	var last *Round
	for i := 0; i < 64; i++ {
		r, err := coord.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range r.Shards {
			if sh.Skipped > sh.Hops {
				t.Fatalf("shard %d skipped %d of %d hops", sh.Shard, sh.Skipped, sh.Hops)
			}
			skipped += sh.Skipped
		}
		hops += r.TotalHops
		last = r
		if len(r.Applied) == 0 && i > 0 {
			break
		}
	}
	if got := m.Skipped.Value(); got != uint64(skipped) {
		t.Errorf("skipped counter = %d, rings report %d", got, skipped)
	}
	if got := m.Skipped.Value() + m.Evaluated.Value(); got != uint64(hops) || got != m.Hops.Value() {
		t.Errorf("skipped+evaluated = %d, hops %d, hop counter %d", got, hops, m.Hops.Value())
	}
	// One more round on the converged instance: all skipped.
	r, err := coord.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if len(last.Applied) != 0 || len(r.Applied) != 0 {
		t.Fatal("instance did not converge")
	}
	for _, sh := range r.Shards {
		if sh.Skipped != sh.Hops {
			t.Errorf("converged shard %d evaluated %d of %d hops", sh.Shard, sh.Hops-sh.Skipped, sh.Hops)
		}
	}
}
