package ga

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

func buildEngine(t *testing.T, seed int64) (*core.Engine, *rand.Rand) {
	t.Helper()
	topo, err := topology.NewCanonicalTree(topology.ScaledCanonicalConfig(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.UniformHosts(topo.Hosts(), 8, 8192, 1000))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	pm := cluster.NewPlacementManager(cl, 1)
	for i := 0; i < topo.Hosts()*3; i++ {
		if _, err := pm.CreateVM(512); err != nil {
			t.Fatal(err)
		}
	}
	if err := pm.PlaceRandom(rng); err != nil {
		t.Fatal(err)
	}
	tm, err := traffic.Generate(traffic.DefaultGenConfig(topo.Racks()), topo, cl, rng)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := core.NewCostModel(core.PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(topo, cm, cl, tm, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng, rng
}

func TestOptimizeImprovesCost(t *testing.T) {
	eng, rng := buildEngine(t, 31)
	initial := eng.TotalCost()
	cfg := DefaultConfig()
	cfg.Population = 40
	cfg.MaxGenerations = 60
	res, err := Optimize(eng, cfg, rng)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.BestCost >= initial {
		t.Fatalf("GA cost %v did not improve on initial %v", res.BestCost, initial)
	}
	if res.BestCost > 0.5*initial {
		t.Fatalf("GA achieved only %v of %v; optimization too weak", res.BestCost, initial)
	}
	// The returned cost must match an engine evaluation of the returned
	// allocation, and the allocation must be feasible.
	if got := eng.TotalCostOf(res.BestAlloc); got != res.BestCost {
		t.Fatalf("BestCost %v but allocation evaluates to %v", res.BestCost, got)
	}
	cl := eng.Cluster().Clone()
	if err := cl.Restore(res.BestAlloc); err != nil {
		t.Fatalf("GA allocation violates capacity: %v", err)
	}
	// The live cluster must be untouched.
	if got := eng.TotalCost(); got != initial {
		t.Fatalf("Optimize mutated the live cluster: %v != %v", got, initial)
	}
}

func TestHistoryMonotone(t *testing.T) {
	eng, rng := buildEngine(t, 5)
	cfg := DefaultConfig()
	cfg.Population = 30
	cfg.MaxGenerations = 40
	res, err := Optimize(eng, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1]+1e-9 {
			t.Fatalf("best-cost history increased at gen %d: %v -> %v",
				i, res.History[i-1], res.History[i])
		}
	}
}

func TestTerminationRule(t *testing.T) {
	// stopConverged triggers exactly when relative improvement over the
	// window falls under the threshold.
	hist := []float64{100, 90, 80, 79.9, 79.8, 79.7}
	if stopConverged(hist, 3, 0.01) != true {
		t.Fatal("converged history not detected")
	}
	if stopConverged([]float64{100, 50}, 3, 0.01) {
		t.Fatal("short history must not stop")
	}
	if stopConverged([]float64{100, 90, 80, 70, 60}, 3, 0.01) {
		t.Fatal("fast-improving history stopped early")
	}
}

func TestConfigValidation(t *testing.T) {
	eng, rng := buildEngine(t, 1)
	for _, cfg := range []Config{
		{Population: 1, MaxGenerations: 1},
	} {
		if _, err := Optimize(eng, cfg, rng); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Population = 25
	cfg.MaxGenerations = 25
	eng1, _ := buildEngine(t, 77)
	res1, err := Optimize(eng1, cfg, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	eng2, _ := buildEngine(t, 77)
	res2, err := Optimize(eng2, cfg, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	if res1.BestCost != res2.BestCost || res1.Generations != res2.Generations {
		t.Fatalf("GA not deterministic: %v/%d vs %v/%d",
			res1.BestCost, res1.Generations, res2.BestCost, res2.Generations)
	}
}

func TestGreedySeedFeasible(t *testing.T) {
	eng, rng := buildEngine(t, 3)
	in, seed, err := buildInstance(eng)
	if err != nil {
		t.Fatal(err)
	}
	if !in.feasible(seed) {
		t.Fatal("live allocation reported infeasible")
	}
	sc := in.getScratch()
	sc.rng = rng // operators draw from the scratch RNG
	g := make([]cluster.HostID, len(seed))
	r := make([]cluster.HostID, len(seed))
	for i := 0; i < 10; i++ {
		in.greedyPack(g, rng, sc)
		if !in.feasible(g) {
			t.Fatalf("greedy genome %d infeasible", i)
		}
		in.randomDense(r, rng, sc)
		if !in.feasible(r) {
			t.Fatalf("random-dense genome %d infeasible", i)
		}
		copy(sc.child, g)
		in.crossover(sc, in.encode(r))
		if !in.feasible(sc.child) {
			t.Fatalf("crossover child %d infeasible", i)
		}
		in.mutate(sc.child, 4, rng, sc)
		if !in.feasible(sc.child) {
			t.Fatalf("mutated genome %d infeasible", i)
		}
	}
}

// TestWorkerCountInvariant: the parallel fan-out must not change the
// optimization's result — any worker count (GOMAXPROCS) yields the same
// best cost, history and allocation as a serial run.
func TestWorkerCountInvariant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Population = 24
	cfg.MaxGenerations = 15
	cfg.MinGenerations = 5
	run := func(workers int) Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		eng, _ := buildEngine(t, 55)
		res, err := Optimize(eng, cfg, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	for _, w := range []int{2, 8} {
		par := run(w)
		if par.BestCost != serial.BestCost || par.Generations != serial.Generations {
			t.Fatalf("workers=%d diverged: %v/%d vs serial %v/%d",
				w, par.BestCost, par.Generations, serial.BestCost, serial.Generations)
		}
		if len(par.History) != len(serial.History) {
			t.Fatalf("workers=%d history length %d vs %d", w, len(par.History), len(serial.History))
		}
		for i := range par.History {
			if par.History[i] != serial.History[i] {
				t.Fatalf("workers=%d history[%d] = %v, serial %v", w, i, par.History[i], serial.History[i])
			}
		}
		for vm, h := range serial.BestAlloc {
			if par.BestAlloc[vm] != h {
				t.Fatalf("workers=%d allocation differs at VM %d", w, vm)
			}
		}
	}
}
