package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/sim"
	"github.com/score-dc/score/internal/token"
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
	base, err := NewScenario(f, s, Sparse, seed)
	if err != nil {
		return nil, err
	}
	cl := base.Cl.Clone()
	rng := rand.New(rand.NewSource(seed ^ 0x5c0e))
	tm := shapeTraffic(base.Topo, cl, rng, w)
	eng, err := core.NewEngine(base.Topo, base.Eng.CostModel(), cl, tm, base.Eng.Config())
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Topo: base.Topo, Cl: cl, TM: tm, Eng: eng,
		Rng: rng, VMsPerHost: base.VMsPerHost,
	}, nil
}

// AutoTuneRun is one sweep cell: a workload run either at a fixed shard
// count or under the adaptive controller.
type AutoTuneRun struct {
	Workload AutoTuneWorkload
	// Auto marks the controller-driven run; Shards is the fixed count
	// otherwise.
	Auto   bool
	Shards int
	// ChosenShards is the per-round effective ring count (auto runs; a
	// fixed sharded run repeats its clamped count).
	ChosenShards  []int
	Reduction     float64
	Migrations    int
	Rounds        int
	CrossProposed int
}

// FinalShards returns the last round's ring count (the converged
// choice), or Shards when the run kept no round record (the single-token
// baseline).
func (r *AutoTuneRun) FinalShards() int {
	if len(r.ChosenShards) == 0 {
		return r.Shards
	}
	return r.ChosenShards[len(r.ChosenShards)-1]
}

// AutoTuneSweepResult holds the auto-tuning sweep: per-workload fixed
// shard counts versus the adaptive controller, plus the adaptive- vs
// fixed-deadline comparison under injected token delay on the
// distributed plane.
type AutoTuneSweepResult struct {
	Family Family
	Scale  Scale
	Runs   []AutoTuneRun

	// Deadline comparison (distributed plane, injected shard-token
	// delay; no loss — every regeneration is recovery work the deadline
	// policy wasted or saved).
	DelayMS, DelayProb, FixedDeadlineMS float64
	FixedRegens, FixedSpurious          int
	AdaptiveRegens, AdaptiveSpurious    int
	FixedReduction, AdaptiveReduction   float64
}

// BestFixed returns the highest-reduction fixed run of a workload.
func (r *AutoTuneSweepResult) BestFixed(w AutoTuneWorkload) (best AutoTuneRun, ok bool) {
	for _, run := range r.Runs {
		if run.Workload != w || run.Auto {
			continue
		}
		if !ok || run.Reduction > best.Reduction {
			best, ok = run, true
		}
	}
	return best, ok
}

// AutoRun returns a workload's controller-driven run.
func (r *AutoTuneSweepResult) AutoRun(w AutoTuneWorkload) (AutoTuneRun, bool) {
	for _, run := range r.Runs {
		if run.Workload == w && run.Auto {
			return run, true
		}
	}
	return AutoTuneRun{}, false
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
// sharded plane), and fixed against adaptive recovery deadlines under
// injected token delay (distributed plane). counts lists the fixed
// shard counts; 1 (the single-token baseline) is prepended when absent.
func AutoTuneSweep(f Family, s Scale, seed int64, counts []int) (*AutoTuneSweepResult, error) {
	if len(counts) == 0 || counts[0] != 1 {
		counts = append([]int{1}, counts...)
	}
	res := &AutoTuneSweepResult{Family: f, Scale: s}
	for _, w := range []AutoTuneWorkload{PodLocal, CrossPod} {
		runOne := func(fixed int, auto bool) error {
			sc, err := NewShapedScenario(f, s, w, seed)
			if err != nil {
				return err
			}
			cfg := sweepConfig(sc.Cl.NumVMs())
			if auto {
				cfg.AutoTune = true
			} else {
				cfg.Shards = fixed
			}
			runner, err := sim.NewRunner(sc.Eng, token.HighestLevelFirst{}, cfg, sc.Rng)
			if err != nil {
				return err
			}
			m, err := runner.Run()
			if err != nil {
				return err
			}
			res.Runs = append(res.Runs, AutoTuneRun{
				Workload: w, Auto: auto, Shards: fixed,
				ChosenShards:  m.ShardsChosen,
				Reduction:     m.Reduction(),
				Migrations:    m.TotalMigrations,
				Rounds:        m.Rounds,
				CrossProposed: m.CrossProposed,
			})
			return nil
		}
		for _, n := range counts {
			if err := runOne(n, false); err != nil {
				return nil, fmt.Errorf("autotune %s fixed-%d: %w", w, n, err)
			}
		}
		if err := runOne(0, true); err != nil {
			return nil, fmt.Errorf("autotune %s auto: %w", w, err)
		}
	}

	// Adaptive vs fixed deadlines under injected delay: same plane, same
	// fault schedule, only the deadline policy differs. The fixed
	// deadline sits below the injected delay, so every delayed hop
	// overruns it; the adaptive estimator must learn the true progress
	// latency and stop regenerating live rings.
	res.DelayMS, res.DelayProb, res.FixedDeadlineMS = 20, 0.35, 12
	deadlineRun := func(adaptive bool) (*sim.Metrics, error) {
		sc, err := NewShapedScenario(f, s, PodLocal, seed)
		if err != nil {
			return nil, err
		}
		cfg := sweepConfig(sc.Cl.NumVMs())
		cfg.MaxIterations = 4
		cfg.DistributedShards = 4
		cfg.TokenDelayProb = res.DelayProb
		cfg.TokenDelayS = res.DelayMS / 1000
		cfg.DistributedDeadlineS = res.FixedDeadlineMS / 1000
		cfg.DistributedEvictAttempts = 8
		cfg.AdaptiveDeadline = adaptive
		runner, err := sim.NewRunner(sc.Eng, token.HighestLevelFirst{}, cfg, sc.Rng)
		if err != nil {
			return nil, err
		}
		return runner.Run()
	}
	fixed, err := deadlineRun(false)
	if err != nil {
		return nil, fmt.Errorf("autotune deadline fixed: %w", err)
	}
	adaptive, err := deadlineRun(true)
	if err != nil {
		return nil, fmt.Errorf("autotune deadline adaptive: %w", err)
	}
	res.FixedRegens, res.FixedSpurious = fixed.TokensRegenerated, fixed.SpuriousRegens
	res.AdaptiveRegens, res.AdaptiveSpurious = adaptive.TokensRegenerated, adaptive.SpuriousRegens
	res.FixedReduction, res.AdaptiveReduction = fixed.Reduction(), adaptive.Reduction()
	return res, nil
}

// FalsePositiveRate is spurious regenerations per regeneration — the
// deadline sweep's headline metric, shared by the rendered table and
// scorebench's CSV column so the two can never disagree.
func FalsePositiveRate(spurious, regens int) float64 {
	if regens == 0 {
		return 0
	}
	return float64(spurious) / float64(regens)
}

// Render prints the sweep tables.
func (r *AutoTuneSweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Auto-tuning sweep: %s / %s\n", r.Family, r.Scale)
	for _, wl := range []AutoTuneWorkload{PodLocal, CrossPod} {
		fmt.Fprintf(w, "workload %s:\n", wl)
		fmt.Fprintln(w, "    mode  shards  reduction  migrations  rounds  cross-proposed")
		for _, run := range r.Runs {
			if run.Workload != wl {
				continue
			}
			mode := fmt.Sprintf("fixed-%d", run.Shards)
			if run.Auto {
				mode = "auto"
			}
			fmt.Fprintf(w, "%8s  %6d  %8.1f%%  %10d  %6d  %14d\n",
				mode, run.FinalShards(), 100*run.Reduction, run.Migrations, run.Rounds, run.CrossProposed)
		}
		if best, ok := r.BestFixed(wl); ok {
			if auto, ok2 := r.AutoRun(wl); ok2 && best.Reduction > 0 {
				fmt.Fprintf(w, "  auto captured %.1f%% of the best fixed reduction (fixed-%d)\n",
					100*auto.Reduction/best.Reduction, best.Shards)
			}
		}
	}
	fmt.Fprintf(w, "adaptive vs fixed shard deadlines (distributed, %.0f%% of token hops delayed %.0f ms, fixed deadline %.0f ms):\n",
		100*r.DelayProb, r.DelayMS, r.FixedDeadlineMS)
	fmt.Fprintln(w, "    mode  regenerations  spurious  false-pos-rate  reduction")
	fmt.Fprintf(w, "   fixed  %13d  %8d  %13.2f%%  %8.1f%%\n",
		r.FixedRegens, r.FixedSpurious, 100*FalsePositiveRate(r.FixedSpurious, r.FixedRegens), 100*r.FixedReduction)
	fmt.Fprintf(w, "adaptive  %13d  %8d  %13.2f%%  %8.1f%%\n",
		r.AdaptiveRegens, r.AdaptiveSpurious, 100*FalsePositiveRate(r.AdaptiveSpurious, r.AdaptiveRegens), 100*r.AdaptiveReduction)
}
