package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/score-dc/score/internal/sim"
	"github.com/score-dc/score/internal/token"
)

// SweepRow is one run of a sharded sweep (ShardSweep, DistributedSweep,
// AutoTuneSweep): the cell it ran and what its metrics report.
type SweepRow struct {
	// Shards is the configured ring count, 0 for the auto-tuned run.
	// Policy names a single-token baseline's policy and Workload the
	// auto-tuning sweep's traffic shape.
	Shards   int
	Policy   string
	Workload AutoTuneWorkload
	// ChosenShards is every round's ring count (sharded runs), and
	// Effective the last of them, or 1 for the single token.
	ChosenShards                            []int
	Effective                               int
	FinalCost, Reduction                    float64
	Migrations, CrossProposed, CrossApplied int
	// Passes counts token passes (one per round on the sharded planes),
	// Rounds the sharded rounds (0 for the in-process single token).
	Passes, Rounds int
	// CriticalHops is the longest ring's hops summed over rounds — the
	// concurrent critical path; all hops for the single token.
	CriticalHops int
	// RingLatencyMS is the slowest ring's mean per-round wall-clock
	// latency (agent plane only). Regenerated and Recovered sum the
	// rings' token re-injections and the rounds they completed despite
	// one.
	RingLatencyMS          float64
	Regenerated, Recovered int
	// PerShard is each ring's activity summed over rounds.
	PerShard  []sim.ShardStats
	WallClock time.Duration
}

// sweepRow runs the cell row names on the scenario, under its Policy
// (drawing from the scenario's RNG) or Highest-Level First, and fills in
// what the run's metrics report.
func (sc *Scenario) sweepRow(row SweepRow, cfg sim.Config) (SweepRow, error) {
	var pol token.Policy = token.HighestLevelFirst{}
	if row.Policy != "" {
		var err error
		if pol, err = token.ByName(row.Policy, sc.Rng); err != nil {
			return row, err
		}
	}
	start := time.Now()
	m, err := sc.runCell(sc.Eng.CostModel(), sc.Eng.Config(), pol, cfg)
	if err != nil {
		return row, err
	}
	row.WallClock = time.Since(start)
	row.ChosenShards, row.Effective = m.ShardsChosen, 1
	if n := len(m.ShardsChosen); n > 0 {
		row.Effective = m.ShardsChosen[n-1]
	}
	row.FinalCost, row.Reduction = m.FinalCost, m.Reduction()
	row.Migrations, row.CrossProposed, row.CrossApplied = m.TotalMigrations, m.CrossProposed, m.CrossApplied
	row.Passes, row.Rounds = len(m.Iterations), m.Rounds
	row.CriticalHops, row.PerShard = m.TokenHops, m.PerShard
	longest, worst := 0, 0.0
	for _, st := range m.PerShard {
		longest = max(longest, st.Hops)
		worst = max(worst, st.LatencyS)
		row.Regenerated += st.Regenerated
		row.Recovered += st.Recovered
	}
	if len(m.PerShard) > 0 {
		row.CriticalHops = longest
	}
	if m.Rounds > 0 {
		row.RingLatencyMS = 1000 * worst / float64(m.Rounds)
	}
	return row, nil
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
	// Rows holds the single token (shards = 1) under each policy, its
	// Policy set, then one run per requested shard count above 1.
	Rows        []SweepRow
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
	res := &ShardSweepResult{Family: f, Density: d, InitialCost: base.Eng.TotalCost(), TotalVMs: base.Cl.NumVMs()}
	for _, name := range policies {
		res.Rows = append(res.Rows, SweepRow{Shards: 1, Policy: name})
	}
	for _, n := range counts {
		if n > 1 {
			res.Rows = append(res.Rows, SweepRow{Shards: n})
		}
	}
	for i, cell := range res.Rows {
		cfg := sweepConfig(base.Cl.NumVMs())
		cfg.Shards = cell.Shards
		if res.Rows[i], err = base.sweepRow(cell, cfg); err != nil {
			return nil, err
		}
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
	// Rows holds one run per shard count; the first is always 1, the
	// serial agent-ring baseline.
	Rows []SweepRow
	// Loss is the injected per-hop shard-token drop probability.
	Loss        float64
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
	res := &DistributedSweepResult{Family: f, Density: d, Loss: loss}
	for _, n := range counts {
		base, err := NewScenario(f, s, d, seed)
		if err != nil {
			return nil, err
		}
		res.InitialCost, res.TotalVMs = base.Eng.TotalCost(), base.Cl.NumVMs()
		cfg := sweepConfig(base.Cl.NumVMs())
		cfg.DistributedShards = n
		if loss > 0 {
			cfg.TokenLossProb = loss
			cfg.DistributedDeadlineS = 0.05
		}
		row, err := base.sweepRow(SweepRow{Shards: n}, cfg)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
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
	for _, x := range r.Rows {
		fmt.Fprintf(w, "%6d  %10.0f  %8.1f%%  %10d  %14d  %13d  %6d  %11.2f  %5d  %9d\n",
			x.Shards, x.FinalCost, 100*x.Reduction, x.Migrations,
			x.CrossProposed, x.CrossApplied, x.Rounds, x.RingLatencyMS,
			x.Regenerated, x.Recovered)
	}
	for _, x := range r.Rows {
		if x.Shards == 1 {
			continue
		}
		fmt.Fprintf(w, "per-shard at %d shards (cumulative):\n", x.Shards)
		for s, st := range x.PerShard {
			fmt.Fprintf(w, "  shard %d: %d hops, %d proposals, %.2f ms ring latency\n",
				s, st.Hops, st.Proposals, 1000*st.LatencyS)
		}
	}
}

// Render prints the baselines, one per policy, then the sharded runs.
func (r *ShardSweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Shard sweep: %s / %s, %d VMs, initial cost %.0f\n",
		r.Family, r.Density, r.TotalVMs, r.InitialCost)
	const header = "shards  eff  final-cost  reduction  migrations  cross  rounds  critical-hops  wall"
	row := func(x SweepRow) {
		fmt.Fprintf(w, "%6d  %3d  %10.0f  %8.1f%%  %10d  %5d  %6d  %13d  %s\n",
			x.Shards, x.Effective, x.FinalCost, 100*x.Reduction, x.Migrations, x.CrossApplied,
			x.Passes, x.CriticalHops, x.WallClock.Round(time.Millisecond))
	}
	n := 0
	for ; n < len(r.Rows) && r.Rows[n].Policy != ""; n++ {
		fmt.Fprintf(w, "single token, policy %s:\n%s\n", r.Rows[n].Policy, header)
		row(r.Rows[n])
	}
	fmt.Fprintf(w, "sharded rounds (ring order; the policy axis ends at shards = 1):\n%s\n", header)
	for _, x := range r.Rows[n:] {
		row(x)
	}
}
