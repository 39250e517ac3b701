package shard_test

import (
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

func newColdRound(tb testing.TB, k int, mt *shard.Metrics) *coldRound {
	tb.Helper()
	sc, err := experiments.NewFatTreeScenario(k, 30, experiments.Sparse, 20140630)
	if err != nil {
		tb.Fatal(err)
	}
	ctrl := control.New(sc.Topo, control.Config{})
	tb.Cleanup(ctrl.Bind(sc.TM, sc.Cl))
	coord, err := shard.NewCoordinator(sc.Eng, shard.Config{Tuner: ctrl, Metrics: mt})
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
// RunRound alone, the least of three restored rounds.
func TestWarmColdRoundAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 30,720-VM k=16 instance")
	}
	const maxAllocs, maxBytes = 8, 2 << 10
	cases := []struct {
		name string
		k    int
		mt   *shard.Metrics
	}{
		{"k=8", 8, nil},
		{"k=16", 16, nil},
		{"k=8 instrumented", 8, shard.NewMetrics(obs.NewRegistry())},
	}
	want := uint64(math.MaxUint64)
	for _, tc := range cases {
		c := newColdRound(t, tc.k, tc.mt)
		allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for pass := 0; pass < 3; pass++ {
			c.restore(t)
			runtime.ReadMemStats(&before)
			r := c.run(t)
			runtime.ReadMemStats(&after)
			if len(r.Applied) == 0 {
				t.Fatalf("%s: the restored round applied nothing; it is not cold", tc.name)
			}
			allocs = min(allocs, after.Mallocs-before.Mallocs)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: %d VMs, %d allocs, %d B per warm cold round", tc.name, c.sc.Cl.NumVMs(), allocs, bytes)
		if allocs > maxAllocs || bytes >= maxBytes {
			t.Errorf("%s: a warm cold round allocates %d times, %d B; want ≤ %d and < %d B", tc.name, allocs, bytes, maxAllocs, maxBytes)
		}
		if want == math.MaxUint64 {
			want = allocs
		} else if allocs != want {
			t.Errorf("%s: %d allocs per round, but %d at %s", tc.name, allocs, want, cases[0].name)
		}
	}
}

// TestRoundPhasesSumToLatency: with Metrics attached, every round observes
// each of the three phases once, and the phases tile the round, so their
// sums add up to the round latency's within 5 %.
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
	for name, h := range map[string]*obs.Histogram{"rings": mt.PhaseRings, "merge": mt.PhaseMerge, "cross": mt.PhaseCross} {
		if n := h.Count(); n != uint64(rounds) {
			t.Fatalf("phase %s observed %d times over %d rounds", name, n, rounds)
		}
		phases += h.Sum()
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
	c := newColdRound(b, 24, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c.restore(b)
		b.StartTimer()
		c.run(b)
	}
}
