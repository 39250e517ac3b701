package serve

import (
	"math"
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/sim"
	"github.com/score-dc/score/internal/token"
	"github.com/score-dc/score/internal/traffic"
)

// recordedStream is a deterministic workload recording: admissions with
// pinned hosts plus rate observations, the daemon-side replay of which
// must land exactly where the batch runner lands on the same state.
type recordedStream struct {
	vms    []snapVM
	rates  []RateSample
	nHosts int
}

// recordStream generates the workload: VMs spread across hosts with a
// seeded placement and fractional pairwise rates.
func recordStream(seed int64, nVMs, nHosts, slots int) recordedStream {
	rng := rand.New(rand.NewSource(seed))
	used := make([]int, nHosts)
	rec := recordedStream{nHosts: nHosts}
	for i := 0; i < nVMs; i++ {
		h := rng.Intn(nHosts)
		for used[h] >= slots {
			h = (h + 1) % nHosts
		}
		used[h]++
		rec.vms = append(rec.vms, snapVM{ID: uint32(i + 1), RAMMB: 64, Host: int32(h)})
	}
	for i := 0; i < nVMs; i++ {
		for _, j := range rng.Perm(nVMs)[:3] {
			if i == j {
				continue
			}
			rec.rates = append(rec.rates, RateSample{
				A:        cluster.VMID(i + 1),
				B:        cluster.VMID(j + 1),
				RateMbps: 120 * rng.Float64(),
			})
		}
	}
	return rec
}

// TestDaemonMatchesBatchRunner replays a recorded stream through the
// daemon (manual rounds, stepped to quiescence) and runs the batch
// sim.Runner in auto-tuned sharded mode over an identical initial
// state, then requires the exact same final placement: the resident
// service is the same scheduler behind a different front door.
func TestDaemonMatchesBatchRunner(t *testing.T) {
	const (
		nVMs, nHosts, slots = 40, 16, 4
		seed                = 11
	)
	rec := recordStream(seed, nVMs, nHosts, slots)

	// Daemon side: replay the stream over HTTP-equivalent ops.
	d := newTestDaemon(t, nil)
	for _, vm := range rec.vms {
		if _, _, err := d.Admit(AdmitRequest{
			ID: cluster.VMID(vm.ID), HasID: true, RAMMB: vm.RAMMB,
			Host: cluster.HostID(vm.Host), HasHost: true,
		}); err != nil {
			t.Fatalf("admit %d: %v", vm.ID, err)
		}
	}
	// Stream the observations in source-sized batches.
	for i := 0; i < len(rec.rates); i += 16 {
		end := i + 16
		if end > len(rec.rates) {
			end = len(rec.rates)
		}
		if _, rejected, err := d.Observe("replay", rec.rates[i:end]); err != nil || rejected != 0 {
			t.Fatalf("observe batch at %d: err=%v rejected=%d", i, err, rejected)
		}
	}
	st, err := d.Step(0)
	if err != nil {
		t.Fatalf("step: %v", err)
	}
	if !st.Quiesced {
		t.Fatalf("daemon did not quiesce: %+v", st)
	}
	daemonAlloc := d.PlacementSnapshot()

	// Batch side: the same initial state through sim.Runner's
	// auto-tuned sharded mode (the same controller + coordinator the
	// daemon embeds).
	topo := testConfig(nil).Topology
	batchTopo, err := topo.Build()
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.UniformHosts(nHosts, slots, 4096, 1000))
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range rec.vms {
		if err := cl.AddVM(cluster.VM{ID: cluster.VMID(vm.ID), RAMMB: vm.RAMMB}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Place(cluster.VMID(vm.ID), cluster.HostID(vm.Host)); err != nil {
			t.Fatal(err)
		}
	}
	tm := traffic.NewMatrix()
	for _, s := range rec.rates {
		tm.Set(s.A, s.B, s.RateMbps)
	}
	costModel, err := core.NewCostModel(core.PaperWeights()...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(batchTopo, costModel, cl, tm, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.AutoTune = true
	runner, err := sim.NewRunner(eng, token.HighestLevelFirst{}, cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := runner.Run()
	if err != nil {
		t.Fatalf("batch run: %v", err)
	}
	batchAlloc := cl.Snapshot()

	if len(daemonAlloc) != len(batchAlloc) {
		t.Fatalf("allocation sizes differ: daemon %d, batch %d", len(daemonAlloc), len(batchAlloc))
	}
	for vm, host := range batchAlloc {
		if daemonAlloc[vm] != host {
			t.Fatalf("VM %d: daemon placed on %d, batch on %d", vm, daemonAlloc[vm], host)
		}
	}
	// The placements are identical, and so are the costs: the daemon
	// folds incrementally through ops and rounds, the runner rebuilds,
	// and both sum rates on the grid.
	if math.Float64bits(st.Cost) != math.Float64bits(metrics.FinalCost) {
		t.Fatalf("final cost differs: daemon %.17g, batch %.17g", st.Cost, metrics.FinalCost)
	}
	if metrics.TotalMigrations == 0 {
		t.Fatal("workload produced no migrations — the equivalence check proved nothing")
	}
	t.Logf("equivalence: %d migrations, final cost %.6g on both pipelines", metrics.TotalMigrations, metrics.FinalCost)
}
