package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/score-dc/score/internal/sim"
	"github.com/score-dc/score/internal/token"
)

// ShardSweepRow is one run of the shard sweep.
type ShardSweepRow struct {
	// Shards is the configured ring count, Effective the count after
	// clamping to the topology's units.
	Shards, Effective int
	FinalCost         float64
	Reduction         float64
	Migrations        int
	CrossApplied      int
	Rounds            int
	// CriticalHops is the longest ring's hops summed over rounds — the
	// concurrent critical path; all hops for the single token.
	CriticalHops int
	WallClock    time.Duration
}

// ShardSweepResult is the shard-count scenario axis opened by the
// sharded token scheduler: it runs the same instance to quiescence at
// each shard count and reports how much of the single-token cost
// reduction the partition/reconcile scheme keeps, what it pays in
// cross-shard reconciliation, and how far the wall-clock critical path
// (the longest ring per round) shrinks. The forwarding policy is an axis
// of the baseline only: a sharded round walks its rings in ID order
// whatever policy is named (token.RingOrder), so there is one row per
// shard count.
type ShardSweepResult struct {
	Family  Family
	Density Density
	// Baseline[i] is the single token (shards = 1) under Policies[i].
	Policies []string
	Baseline []ShardSweepRow
	// Sharded holds one run per requested shard count above 1.
	Sharded     []ShardSweepRow
	InitialCost float64
	TotalVMs    int
}

// ShardSweep runs the sweep on one topology family and density: the
// single-token baseline under each named policy (Highest-Level First
// when none is named), then every count above 1.
func ShardSweep(f Family, d Density, s Scale, seed int64, counts []int, policies []string) (*ShardSweepResult, error) {
	if len(policies) == 0 {
		policies = []string{"hlf"}
	}
	base, err := NewScenario(f, s, d, seed)
	if err != nil {
		return nil, err
	}
	res := &ShardSweepResult{
		Family: f, Density: d, Policies: policies,
		InitialCost: base.Eng.TotalCost(), TotalVMs: base.Cl.NumVMs(),
	}
	run := func(shards int, polName string) (ShardSweepRow, error) {
		sc, err := base.CloneForRun()
		if err != nil {
			return ShardSweepRow{}, err
		}
		pol, err := token.ByName(polName, sc.Rng)
		if err != nil {
			return ShardSweepRow{}, err
		}
		cfg := sweepConfig(sc.Cl.NumVMs())
		cfg.Shards = shards
		runner, err := sim.NewRunner(sc.Eng, pol, cfg, sc.Rng)
		if err != nil {
			return ShardSweepRow{}, err
		}
		start := time.Now()
		m, err := runner.Run()
		if err != nil {
			return ShardSweepRow{}, err
		}
		row := ShardSweepRow{
			Shards: shards, Effective: 1, WallClock: time.Since(start),
			FinalCost: m.FinalCost, Reduction: m.Reduction(),
			Migrations: m.TotalMigrations, CrossApplied: m.CrossApplied,
			Rounds: len(m.Iterations), CriticalHops: m.TokenHops,
		}
		if shards > 1 {
			// PerShard hops accumulate across rounds; the longest
			// ring's total approximates the concurrent critical path.
			row.Effective, row.CriticalHops = len(m.PerShard), 0
			for _, st := range m.PerShard {
				row.CriticalHops = max(row.CriticalHops, st.Hops)
			}
		}
		return row, nil
	}
	for _, polName := range policies {
		row, err := run(1, polName)
		if err != nil {
			return nil, err
		}
		res.Baseline = append(res.Baseline, row)
	}
	for _, n := range counts {
		if n <= 1 {
			continue
		}
		row, err := run(n, "hlf")
		if err != nil {
			return nil, err
		}
		res.Sharded = append(res.Sharded, row)
	}
	return res, nil
}

// DistributedSweepResult is the agent-plane counterpart of the shard
// sweep: for each shard count, the full dom0 protocol (one agent per
// host over an in-memory transport, per-shard token rings, the
// reconciliation agent) runs to quiescence. It reports cost capture
// plus the distributed plane's own observables — per-shard ring
// latency and cross-shard proposal volume.
type DistributedSweepResult struct {
	Family  Family
	Density Density
	// Counts[0] is always 1 — the serial agent-ring baseline.
	Counts        []int
	FinalCost     []float64
	Reduction     []float64
	Migrations    []int
	CrossProposed []int
	CrossApplied  []int
	Rounds        []int
	// RingLatencyMS[i] is the mean per-round latency of the slowest
	// ring (wall clock, token injection to completion report);
	// ShardLatencyMS[i][s] the per-shard cumulative latency.
	RingLatencyMS  []float64
	ShardLatencyMS [][]float64
	ShardHops      [][]int
	ShardProposals [][]int
	// Loss is the injected per-hop shard-token drop probability;
	// Regenerated and Recovered count reconciler token re-injections
	// and rings that completed despite needing one, per shard count.
	Loss        float64
	Regenerated []int
	Recovered   []int
	InitialCost float64
	TotalVMs    int
}

// DistributedSweep runs the distributed agent plane across shard counts
// on one topology family and density. loss > 0 additionally drops that
// fraction of shard-token hops via a seeded fault plan, exercising the
// reconciler's ring-regeneration path at every shard count.
func DistributedSweep(f Family, d Density, s Scale, seed int64, counts []int, loss float64) (*DistributedSweepResult, error) {
	if len(counts) == 0 || counts[0] != 1 {
		counts = append([]int{1}, counts...)
	}
	res := &DistributedSweepResult{Family: f, Density: d, Counts: counts, Loss: loss}
	for _, n := range counts {
		base, err := NewScenario(f, s, d, seed)
		if err != nil {
			return nil, err
		}
		res.InitialCost = base.Eng.TotalCost()
		res.TotalVMs = base.Cl.NumVMs()
		cfg := sweepConfig(base.Cl.NumVMs())
		cfg.DistributedShards = n
		if loss > 0 {
			cfg.TokenLossProb = loss
			cfg.DistributedDeadlineS = 0.05
		}
		runner, err := sim.NewRunner(base.Eng, token.HighestLevelFirst{}, cfg, base.Rng)
		if err != nil {
			return nil, err
		}
		m, err := runner.Run()
		if err != nil {
			return nil, err
		}
		res.FinalCost = append(res.FinalCost, m.FinalCost)
		res.Reduction = append(res.Reduction, m.Reduction())
		res.Migrations = append(res.Migrations, m.TotalMigrations)
		res.CrossProposed = append(res.CrossProposed, m.CrossProposed)
		res.CrossApplied = append(res.CrossApplied, m.CrossApplied)
		res.Rounds = append(res.Rounds, m.Rounds)
		var lat []float64
		var hops, props []int
		worst := 0.0
		regen, recov := 0, 0
		for _, st := range m.PerShard {
			lat = append(lat, 1000*st.LatencyS)
			hops = append(hops, st.Hops)
			props = append(props, st.Proposals)
			regen += st.Regenerated
			recov += st.Recovered
			if st.LatencyS > worst {
				worst = st.LatencyS
			}
		}
		res.Regenerated = append(res.Regenerated, regen)
		res.Recovered = append(res.Recovered, recov)
		mean := 0.0
		if m.Rounds > 0 {
			mean = 1000 * worst / float64(m.Rounds)
		}
		res.RingLatencyMS = append(res.RingLatencyMS, mean)
		res.ShardLatencyMS = append(res.ShardLatencyMS, lat)
		res.ShardHops = append(res.ShardHops, hops)
		res.ShardProposals = append(res.ShardProposals, props)
	}
	return res, nil
}

// Render prints the distributed sweep table plus a per-shard breakdown.
func (r *DistributedSweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Distributed agent-plane sweep: %s / %s, %d VMs, initial cost %.0f",
		r.Family, r.Density, r.TotalVMs, r.InitialCost)
	if r.Loss > 0 {
		fmt.Fprintf(w, ", %.1f%% shard-token loss", 100*r.Loss)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "shards  final-cost  reduction  migrations  cross-proposed  cross-applied  rounds  ring-lat-ms  regen  recovered")
	for i, n := range r.Counts {
		fmt.Fprintf(w, "%6d  %10.0f  %8.1f%%  %10d  %14d  %13d  %6d  %11.2f  %5d  %9d\n",
			n, r.FinalCost[i], 100*r.Reduction[i], r.Migrations[i],
			r.CrossProposed[i], r.CrossApplied[i], r.Rounds[i], r.RingLatencyMS[i],
			r.Regenerated[i], r.Recovered[i])
	}
	for i, n := range r.Counts {
		if n == 1 {
			continue
		}
		fmt.Fprintf(w, "per-shard at %d shards (cumulative):\n", n)
		for s := range r.ShardLatencyMS[i] {
			fmt.Fprintf(w, "  shard %d: %d hops, %d proposals, %.2f ms ring latency\n",
				s, r.ShardHops[i][s], r.ShardProposals[i][s], r.ShardLatencyMS[i][s])
		}
	}
}

// Render prints the baselines, one per policy, then the sharded runs.
func (r *ShardSweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Shard sweep: %s / %s, %d VMs, initial cost %.0f\n",
		r.Family, r.Density, r.TotalVMs, r.InitialCost)
	const header = "shards  eff  final-cost  reduction  migrations  cross  rounds  critical-hops  wall"
	row := func(x ShardSweepRow) {
		fmt.Fprintf(w, "%6d  %3d  %10.0f  %8.1f%%  %10d  %5d  %6d  %13d  %s\n",
			x.Shards, x.Effective, x.FinalCost, 100*x.Reduction, x.Migrations, x.CrossApplied,
			x.Rounds, x.CriticalHops, x.WallClock.Round(time.Millisecond))
	}
	for pi, pol := range r.Policies {
		fmt.Fprintf(w, "single token, policy %s:\n%s\n", pol, header)
		row(r.Baseline[pi])
	}
	fmt.Fprintf(w, "sharded rounds (ring order; the policy axis ends at shards = 1):\n%s\n", header)
	for _, x := range r.Sharded {
		row(x)
	}
}
