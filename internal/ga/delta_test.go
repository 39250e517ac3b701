package ga

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/score-dc/score/internal/cluster"
)

// capturedRun is every generation's fully materialized population plus
// its fitness vector, recorded through the observeGen hook.
type capturedRun struct {
	pops [][][]cluster.HostID // [gen][indiv][vm]
	fits [][]float64
	res  Result
	// deltaUsed counts individuals that were actually diff-encoded at
	// observation time — zero would make an equivalence claim vacuous.
	deltaUsed int
}

// captureRun runs Optimize at GOMAXPROCS procs, the size of its worker
// pool.
func captureRun(t *testing.T, engSeed, optSeed int64, procs int, denseGenomes bool) capturedRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	eng, _ := buildEngine(t, engSeed)
	cfg := DefaultConfig()
	cfg.Population = 24
	cfg.MinGenerations = 12
	cfg.MaxGenerations = 12
	cfg.denseGenomes = denseGenomes
	var rec capturedRun
	cfg.observeGen = func(gen int, in *instance, pop []*indiv, fit []float64) {
		gens := make([][]cluster.HostID, len(pop))
		for i, iv := range pop {
			g := make([]cluster.HostID, len(in.vms))
			in.materialize(g, iv)
			gens[i] = g
			if iv.dense == nil {
				rec.deltaUsed++
			}
		}
		rec.pops = append(rec.pops, gens)
		rec.fits = append(rec.fits, append([]float64(nil), fit...))
	}
	res, err := Optimize(eng, cfg, rand.New(rand.NewSource(optSeed)))
	if err != nil {
		t.Fatal(err)
	}
	rec.res = res
	return rec
}

// TestDeltaDenseEquivalence: the delta-encoded population must be
// bit-identical, generation by generation and individual by individual,
// to the dense representation (the denseGenomes hook) for the same seeds —
// across worker counts, so the scratch free list and rebase cannot leak
// representation effects into the optimization.
func TestDeltaDenseEquivalence(t *testing.T) {
	for _, seeds := range [][2]int64{{77, 99}, {31, 7}} {
		for _, workers := range []int{1, 2, 8} {
			delta := captureRun(t, seeds[0], seeds[1], workers, false)
			dense := captureRun(t, seeds[0], seeds[1], workers, true)
			if delta.deltaUsed == 0 {
				t.Fatalf("seeds=%v workers=%d: no individual was ever diff-encoded; equivalence is vacuous",
					seeds, workers)
			}
			if dense.deltaUsed != 0 {
				t.Fatalf("denseGenomes run still produced diff-encoded individuals")
			}
			if len(delta.pops) != len(dense.pops) {
				t.Fatalf("seeds=%v workers=%d: generation counts differ: %d vs %d",
					seeds, workers, len(delta.pops), len(dense.pops))
			}
			for g := range delta.pops {
				for i := range delta.pops[g] {
					if delta.fits[g][i] != dense.fits[g][i] {
						t.Fatalf("seeds=%v workers=%d gen=%d indiv=%d: fitness %v vs %v",
							seeds, workers, g, i, delta.fits[g][i], dense.fits[g][i])
					}
					for v := range delta.pops[g][i] {
						if delta.pops[g][i][v] != dense.pops[g][i][v] {
							t.Fatalf("seeds=%v workers=%d gen=%d indiv=%d vm=%d: host %d vs %d",
								seeds, workers, g, i, v,
								delta.pops[g][i][v], dense.pops[g][i][v])
						}
					}
				}
			}
			if delta.res.BestCost != dense.res.BestCost {
				t.Fatalf("seeds=%v workers=%d: best cost %v vs %v",
					seeds, workers, delta.res.BestCost, dense.res.BestCost)
			}
			for vm, h := range dense.res.BestAlloc {
				if delta.res.BestAlloc[vm] != h {
					t.Fatalf("seeds=%v workers=%d: best allocation differs at VM %d", seeds, workers, vm)
				}
			}
		}
	}
}

// TestRebaseEquivalence forces the rebase path (tiny diff budget so the
// population overflows to dense quickly) and checks the re-anchored
// population still materializes identically to the dense run.
func TestRebaseEquivalence(t *testing.T) {
	eng, _ := buildEngine(t, 55)
	cfg := DefaultConfig()
	cfg.Population = 16
	cfg.MinGenerations = 10
	cfg.MaxGenerations = 10
	rebased := false
	var deltaPops [][][]cluster.HostID
	cfg.observeGen = func(gen int, in *instance, pop []*indiv, fit []float64) {
		gens := make([][]cluster.HostID, len(pop))
		dense := 0
		for i, iv := range pop {
			g := make([]cluster.HostID, len(in.vms))
			in.materialize(g, iv)
			gens[i] = g
			if iv.dense != nil {
				dense++
			}
		}
		if dense <= len(pop)/2 && gen > 0 {
			// A majority-dense population must have been re-anchored at
			// the top of some generation for the count to fall again.
			rebased = true
		}
		deltaPops = append(deltaPops, gens)
	}
	resDelta, err := Optimize(eng, cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}

	engD, _ := buildEngine(t, 55)
	cfgD := cfg
	cfgD.denseGenomes = true
	var densePops [][][]cluster.HostID
	cfgD.observeGen = func(gen int, in *instance, pop []*indiv, fit []float64) {
		gens := make([][]cluster.HostID, len(pop))
		for i, iv := range pop {
			g := make([]cluster.HostID, len(in.vms))
			in.materialize(g, iv)
			gens[i] = g
		}
		densePops = append(densePops, gens)
	}
	resDense, err := Optimize(engD, cfgD, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if resDelta.BestCost != resDense.BestCost {
		t.Fatalf("best cost diverged: %v vs %v", resDelta.BestCost, resDense.BestCost)
	}
	for g := range deltaPops {
		for i := range deltaPops[g] {
			for v := range deltaPops[g][i] {
				if deltaPops[g][i][v] != densePops[g][i][v] {
					t.Fatalf("gen=%d indiv=%d vm=%d diverged after rebase", g, i, v)
				}
			}
		}
	}
	t.Logf("rebase exercised: %v", rebased)
}

// TestOptimizeAllocBound is the allocation regression gate for the
// per-generation path: one full Optimize call (fixed single generation;
// AllocsPerRun runs it at GOMAXPROCS 1, so on one worker) must stay far
// below the historical dense implementation's ~12k allocations.
func TestOptimizeAllocBound(t *testing.T) {
	eng, _ := buildEngine(t, 9)
	cfg := DefaultConfig()
	cfg.Population = 30
	cfg.MinGenerations = 1
	cfg.MaxGenerations = 1
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Optimize(eng, cfg, rand.New(rand.NewSource(42))); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per Optimize (pop=30, 1 gen): %.0f", allocs)
	// Historical dense implementation: ~12148. Delta + scratch reuse:
	// ~250. The bound leaves headroom without letting genome-copy
	// traffic creep back in.
	if allocs > 1500 {
		t.Fatalf("per-generation path allocates %.0f times, want ≤ 1500", allocs)
	}
}
