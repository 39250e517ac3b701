package shard_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/control"
	"github.com/score-dc/score/internal/experiments"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/shard"
)

// coldRound is an auto-tuned coordinator on the scale benchmarks' k-ary
// fat-tree (30 VMs per host, sparse traffic) after one warm-up round,
// with the placement that round started from.
type coldRound struct {
	sc    *experiments.Scenario
	ctrl  *control.Controller
	coord *shard.Coordinator
	snap  map[cluster.VMID]cluster.HostID
}

// newColdRound plans its rounds with tuner, or with the controller when
// tuner is nil.
func newColdRound(tb testing.TB, k int, mt *shard.Metrics, tuner shard.Tuner) *coldRound {
	tb.Helper()
	sc, err := experiments.NewFatTreeScenario(k, 30, experiments.Sparse, 20140630)
	if err != nil {
		tb.Fatal(err)
	}
	ctrl := control.New(sc.Topo, control.Config{})
	tb.Cleanup(ctrl.Bind(sc.TM, sc.Cl))
	if tuner == nil {
		tuner = ctrl
	}
	coord, err := shard.NewCoordinator(sc.Eng, shard.Config{Tuner: tuner, Metrics: mt})
	if err != nil {
		tb.Fatal(err)
	}
	c := &coldRound{sc: sc, ctrl: ctrl, coord: coord, snap: sc.Cl.Snapshot()}
	c.run(tb)
	return c
}

// restore puts the warm-up round's starting placement back and lets the
// controller absorb the restore, so the next round is that cold round
// again.
func (c *coldRound) restore(tb testing.TB) {
	if err := c.sc.Cl.Restore(c.snap); err != nil {
		tb.Fatal(err)
	}
	c.ctrl.Recommendation()
}

// podShapes is a scripted Tuner: it plans the pod shard counts in plan,
// one a round, cycling.
type podShapes struct {
	plan  []int
	calls int
}

func (p *podShapes) Plan() (int, shard.Granularity) {
	n := p.plan[p.calls%len(p.plan)]
	p.calls++
	return n, shard.ByPod
}

func (c *coldRound) run(tb testing.TB) *shard.Round {
	r, err := c.coord.RunRound()
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// TestWarmColdRoundAllocs is the hard gate on what a round allocates once
// its storage is warm: a cold round after a Restore allocates only the
// Round it returns — no list that grows with the instance — so the count
// is the same at k=8 and k=16, and so is an instrumented round's, whose
// phase clock uses pre-resolved histograms. Allocations are counted over
// RunRound alone, the least of three restored rounds. A round's decisions
// live in storage sized to the instance, not to the shape, so a round
// the tuner reshaped allocates no more: after a warm-up at 5 pod shards,
// the restored rounds at 1 and then 4 shards are each held to the same
// count. Every case runs the pool at GOMAXPROCS workers: its helpers are
// parked between rounds, not spawned, so neither the rings' fan-out nor
// the round's two overlaps allocate.
func TestWarmColdRoundAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 30,720-VM k=16 instance")
	}
	const maxAllocs, maxBytes = 8, 2 << 10
	cases := []struct {
		name string
		k    int
		mt   *shard.Metrics
		// shapes, when set, are the pod shard counts a scripted tuner
		// plans: the warm-up round's, then one measured round at each of
		// the rest.
		shapes []int
	}{
		{"k=8", 8, nil, nil},
		{"k=16", 16, nil, nil},
		{"k=8 instrumented", 8, shard.NewMetrics(obs.NewRegistry()), nil},
		{"k=8 reshaped", 8, nil, []int{5, 1, 4}},
	}
	want := uint64(math.MaxUint64)
	check := func(name string, allocs, bytes uint64) {
		t.Logf("%s: %d allocs, %d B per warm cold round", name, allocs, bytes)
		if allocs > maxAllocs || bytes >= maxBytes {
			t.Errorf("%s: a warm cold round allocates %d times, %d B; want ≤ %d and < %d B", name, allocs, bytes, maxAllocs, maxBytes)
		}
		if want == math.MaxUint64 {
			want = allocs
		} else if allocs != want {
			t.Errorf("%s: %d allocs per round, but %d at %s", name, allocs, want, cases[0].name)
		}
	}
	// measure restores the warm-up's placement and counts what the next
	// round allocates.
	measure := func(name string, c *coldRound) (allocs, bytes uint64, r *shard.Round) {
		c.restore(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r = c.run(t)
		runtime.ReadMemStats(&after)
		if len(r.Applied) == 0 {
			t.Fatalf("%s: the restored round applied nothing; it is not cold", name)
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, r
	}
	for _, tc := range cases {
		if tc.shapes == nil {
			c := newColdRound(t, tc.k, tc.mt, nil)
			allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
			for pass := 0; pass < 3; pass++ {
				a, b, _ := measure(tc.name, c)
				allocs, bytes = min(allocs, a), min(bytes, b)
			}
			check(fmt.Sprintf("%s, %d VMs", tc.name, c.sc.Cl.NumVMs()), allocs, bytes)
			continue
		}
		// A reshaped round is the first at its shape, so the least of
		// three is taken over three coordinators run alike.
		n := len(tc.shapes) - 1
		allocs, bytes := make([]uint64, n), make([]uint64, n)
		for j := range allocs {
			allocs[j], bytes[j] = math.MaxUint64, math.MaxUint64
		}
		for rep := 0; rep < 3; rep++ {
			c := newColdRound(t, tc.k, tc.mt, &podShapes{plan: tc.shapes})
			for j := 0; j < n; j++ {
				a, b, r := measure(tc.name, c)
				if len(r.Shards) != tc.shapes[j+1] {
					t.Fatalf("%s: round %d ran %d rings, the tuner planned %d", tc.name, j+1, len(r.Shards), tc.shapes[j+1])
				}
				allocs[j], bytes[j] = min(allocs[j], a), min(bytes[j], b)
			}
		}
		for j := range allocs {
			check(fmt.Sprintf("%s, %d shards after %d", tc.name, tc.shapes[j+1], tc.shapes[j]), allocs[j], bytes[j])
		}
	}
}

// TestRoundPhasesSumToLatency: with Metrics attached, every round observes
// each of the six phases once, and the phases tile the round, so their
// sums add up to the round latency's within 5 %. The plan, the ring patch
// and the view resets show in phases of their own. The engine's changelog
// fold is observed once a round too, where it runs, beside the plan: the
// plan includes any wait for it, so it never sums to more than the plan.
func TestRoundPhasesSumToLatency(t *testing.T) {
	mt := shard.NewMetrics(obs.NewRegistry())
	eng := shard.BuildEngine(t, 8, 29, 10)
	coord, err := shard.NewCoordinator(eng, shard.Config{Shards: 4, Metrics: mt})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for {
		r, err := coord.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		rounds++
		if len(r.Applied) == 0 {
			break
		}
		if rounds == 64 {
			t.Fatal("rounds did not converge")
		}
	}
	phases := 0.0
	for name, h := range map[string]*obs.Histogram{"plan": mt.PhasePlan, "patch": mt.PhasePatch, "reset": mt.PhaseReset, "rings": mt.PhaseRings, "merge": mt.PhaseMerge, "cross": mt.PhaseCross} {
		if n := h.Count(); n != uint64(rounds) {
			t.Fatalf("phase %s observed %d times over %d rounds", name, n, rounds)
		}
		phases += h.Sum()
	}
	if mt.PhasePatch.Sum() <= 0 {
		t.Fatal("the ring patch took no time on the phase clock")
	}
	if mt.PhaseReset.Sum() <= 0 {
		t.Fatal("the view resets took no time on the phase clock")
	}
	if n := mt.PhaseFold.Count(); n != uint64(rounds) {
		t.Fatalf("phase fold observed %d times over %d rounds", n, rounds)
	}
	if fold, plan := mt.PhaseFold.Sum(), mt.PhasePlan.Sum(); fold > plan {
		t.Fatalf("the fold took %v s beside a plan of %v s, which waits for it", fold, plan)
	}
	total := mt.RoundLatency.Sum()
	t.Logf("%d rounds: phases %.3f ms, round latency %.3f ms", rounds, 1e3*phases, 1e3*total)
	if math.Abs(phases-total) > 0.05*total {
		t.Fatalf("phases sum to %v s, rounds took %v s", phases, total)
	}
}

// BenchmarkColdRound is one warm cold round of the auto-tuned coordinator
// on the k=24 fat-tree (103,680 VMs): the placement is restored, untimed,
// before each round. Its allocs/op and B/op stay those of the Round it
// returns (TestWarmColdRoundAllocs is the hard gate).
func BenchmarkColdRound(b *testing.B) {
	c := newColdRound(b, 24, nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c.restore(b)
		b.StartTimer()
		c.run(b)
	}
}

// BenchmarkColdRoundReshaped is BenchmarkColdRound with the shape changing
// every round: after a warm-up round at 5 pod shards, the restored cold
// rounds run at 1, 4, 5, 1, … pod shards, the shapes the controller plans
// for converge's passes. Its allocs/op and B/op stay those of the Round it
// returns: the rings stage into one arena sized to the VMs and the merge
// reserves its lists once a round, so no shape regrows them.
func BenchmarkColdRoundReshaped(b *testing.B) {
	c := newColdRound(b, 24, nil, &podShapes{plan: []int{5, 1, 4}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c.restore(b)
		b.StartTimer()
		c.run(b)
	}
}
