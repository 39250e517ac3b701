package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/sim"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// AutoTuneWorkload names a traffic shape of the auto-tuning sweep. The
// two shapes have different optimal shard counts by construction:
// pod-local traffic wants one ring per pod (cross-shard rate ≈ 0 at
// full fan-out), cross-pod-heavy traffic wants few rings (fan-out pushes
// most rate through the reconciliation queue).
type AutoTuneWorkload string

// The sweep's workload shapes.
const (
	PodLocal AutoTuneWorkload = "pod-local"
	CrossPod AutoTuneWorkload = "cross-pod"
)

// shapeTraffic synthesizes a hotspot matrix with controlled pod
// locality over the current placement: heavy elephant pairs either
// within pods (across their racks, so S-CORE still has rack-level moves
// to make) or between pods, plus a light uniform mice background.
func shapeTraffic(topo topology.Topology, cl *cluster.Cluster, rng *rand.Rand, w AutoTuneWorkload) *traffic.Matrix {
	m := traffic.NewMatrix()
	vms := cl.VMs()
	byPod := map[int][]cluster.VMID{}
	var pods []int
	for _, vm := range vms {
		h := cl.HostOf(vm)
		if h == cluster.NoHost {
			continue
		}
		p := topo.PodOf(h)
		if len(byPod[p]) == 0 {
			pods = append(pods, p)
		}
		byPod[p] = append(byPod[p], vm)
	}
	elephant := func() float64 {
		r := math.Exp(3.8 + 0.6*rng.NormFloat64())
		if r > 400 {
			r = 400
		}
		return r
	}
	const elephantsPerPod = 8
	for _, p := range pods {
		set := byPod[p]
		if len(set) < 2 {
			continue
		}
		for i := 0; i < elephantsPerPod; i++ {
			u := set[rng.Intn(len(set))]
			var v cluster.VMID
			switch w {
			case CrossPod:
				if len(pods) < 2 {
					continue
				}
				q := p
				for q == p {
					q = pods[rng.Intn(len(pods))]
				}
				v = byPod[q][rng.Intn(len(byPod[q]))]
			default: // pod-local: prefer a different rack of the same pod
				v = u
				for tries := 0; tries < 16 && (v == u || topo.RackOf(cl.HostOf(v)) == topo.RackOf(cl.HostOf(u))); tries++ {
					v = set[rng.Intn(len(set))]
				}
				if v == u {
					continue
				}
			}
			m.Add(u, v, elephant())
		}
	}
	// Mice background: one light uniform peer per VM keeps the matrix
	// realistically dense without moving the locality shares.
	for _, u := range vms {
		v := vms[rng.Intn(len(vms))]
		if v == u {
			continue
		}
		m.Add(u, v, 0.05+0.45*rng.Float64())
	}
	return m
}

// NewShapedScenario builds a scenario whose traffic matrix follows the
// named workload shape instead of the default generator's.
func NewShapedScenario(f Family, s Scale, w AutoTuneWorkload, seed int64) (*Scenario, error) {
	sc, err := NewScenario(f, s, Sparse, seed)
	if err != nil {
		return nil, err
	}
	sc.Rng = rand.New(rand.NewSource(seed ^ 0x5c0e))
	sc.TM = shapeTraffic(sc.Topo, sc.Cl, sc.Rng, w)
	if sc.Eng, err = core.NewEngine(sc.Topo, sc.Eng.CostModel(), sc.Cl, sc.TM, sc.Eng.Config()); err != nil {
		return nil, err
	}
	return sc, nil
}

// AutoTuneSweepResult holds the auto-tuning sweep: per-workload fixed
// shard counts versus the adaptive controller (Shards 0).
type AutoTuneSweepResult struct {
	Family Family
	Scale  Scale
	Rows   []SweepRow
}

// BestFixed returns the highest-reduction fixed run of a workload.
func (r *AutoTuneSweepResult) BestFixed(w AutoTuneWorkload) (best SweepRow, ok bool) {
	for _, row := range r.Rows {
		if row.Workload == w && row.Shards != 0 && (!ok || row.Reduction > best.Reduction) {
			best, ok = row, true
		}
	}
	return best, ok
}

// AutoRun returns a workload's controller-driven run.
func (r *AutoTuneSweepResult) AutoRun(w AutoTuneWorkload) (SweepRow, bool) {
	for _, row := range r.Rows {
		if row.Workload == w && row.Shards == 0 {
			return row, true
		}
	}
	return SweepRow{}, false
}

// sweepConfig is the run shape shared by the shard, distributed and
// auto-tuning sweeps: 50 ms hops, at most 40 passes, 40 cost samples.
func sweepConfig(numVMs int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.HopLatencyS = 0.05
	cfg.MaxIterations = 40
	cfg.DurationS = cfg.HopLatencyS * float64(40*numVMs)
	cfg.SampleIntervalS = cfg.DurationS / 40
	return cfg
}

// AutoTuneSweep compares fixed shard counts against the adaptive
// controller on a pod-local and a cross-pod-heavy workload (in-process
// sharded plane). counts lists the fixed shard counts; 1 (the
// single-token baseline) is prepended when absent.
func AutoTuneSweep(f Family, s Scale, seed int64, counts []int) (*AutoTuneSweepResult, error) {
	if len(counts) == 0 || counts[0] != 1 {
		counts = append([]int{1}, counts...)
	}
	res := &AutoTuneSweepResult{Family: f, Scale: s}
	// Shards 0 is the controller-driven run, after the fixed counts.
	cells := append(slices.Clip(counts), 0)
	for _, w := range []AutoTuneWorkload{PodLocal, CrossPod} {
		for _, n := range cells {
			sc, err := NewShapedScenario(f, s, w, seed)
			if err != nil {
				return nil, fmt.Errorf("autotune %s %s: %w", w, mode(n), err)
			}
			cfg := sweepConfig(sc.Cl.NumVMs())
			cfg.Shards, cfg.AutoTune = n, n == 0
			row, err := sc.sweepRow(SweepRow{Shards: n, Workload: w}, cfg)
			if err != nil {
				return nil, fmt.Errorf("autotune %s %s: %w", w, mode(n), err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// mode names a run of the auto-tuning sweep: its fixed shard count, or
// auto (0).
func mode(shards int) string {
	if shards == 0 {
		return "auto"
	}
	return fmt.Sprintf("fixed-%d", shards)
}

// Render prints the sweep tables.
func (r *AutoTuneSweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Auto-tuning sweep: %s / %s\n", r.Family, r.Scale)
	for _, wl := range []AutoTuneWorkload{PodLocal, CrossPod} {
		fmt.Fprintf(w, "workload %s:\n", wl)
		fmt.Fprintln(w, "    mode  shards  reduction  migrations  rounds  cross-proposed")
		for _, row := range r.Rows {
			if row.Workload == wl {
				fmt.Fprintf(w, "%8s  %6d  %8.1f%%  %10d  %6d  %14d\n",
					mode(row.Shards), row.Effective, 100*row.Reduction, row.Migrations, row.Rounds, row.CrossProposed)
			}
		}
		if best, ok := r.BestFixed(wl); ok {
			if auto, ok2 := r.AutoRun(wl); ok2 && best.Reduction > 0 {
				fmt.Fprintf(w, "  auto captured %.1f%% of the best fixed reduction (fixed-%d)\n",
					100*auto.Reduction/best.Reduction, best.Shards)
			}
		}
	}
}
