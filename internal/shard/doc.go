// Package shard runs S-CORE token scheduling concurrently over
// topology-aligned shards of the VM population, with mergeable ΔC
// accounting.
//
// # Deviation from the paper
//
// The paper's Section V-A circulates a single token: one VM decides at a
// time, which serializes the entire control loop. With the per-decision
// hot path allocation-free, that serialization dominates wall-clock at
// data-center scale. This package trades the single global ring for a
// partition-then-reconcile scheme in the spirit of per-cell
// decompositions of cluster management (Han et al.'s approximate-MDP
// manager) and the partition/reconcile pattern surveyed by Xu et al.:
//
//  1. Partition. Hosts are grouped into shards along topology lines
//     (whole aggregation pods by default, or whole racks), and every
//     placed VM belongs to the shard of its current host. Aligning
//     shard boundaries with topology levels keeps the common,
//     high-value moves — co-locating communicating VMs within a rack
//     or pod — inside one shard.
//
//  2. Concurrent rings. Each shard runs one independent token ring
//     over its own VMs on a bounded worker pool. A ring stages its
//     decisions in a private core.AllocView: intra-shard migrations
//     commit into the view lock-free (no other shard can touch the
//     shard's hosts), while proposals whose best target lies in
//     another shard are queued, not applied. Remote VMs are read at
//     their frozen round-start positions. A ring is visited once per
//     round in ascending VM-ID order, and that is the only order there
//     is: the paper's forwarding policies (token.Policy) prioritise
//     with level estimates a persistent token accumulates across
//     passes, and a ring rebuilt every round has none — over one fresh
//     pass Round-Robin and Highest-Level-First both hand the token to
//     the ring successor (token.RingOrder). So the ring is the
//     partition's own bitmap of the shard's VMs over the cluster's ID
//     window, walked word by word in ascending ID order; no token is
//     built and no policy is asked. A policy that would reorder even a fresh pass
//     (Random, Lowest-Level-First) is refused by NewCoordinator; it
//     belongs to the single persistent token of sim.Runner.
//
//  3. The merge phase (Merge, merge.go). After all rings finish, each
//     ring's staged intra-shard commits are replayed in shard order,
//     then the queued cross-shard proposals in a deterministic order
//     (descending staged ΔC, then VM ID, then target). Every move is
//     checked — ΔC > c_m and admissible — against the allocation the
//     move before it left, because a staged ΔC was computed against
//     frozen cross-shard peer positions and an earlier-merged shard may
//     have moved a peer since; so Theorem 1's guarantee (every applied
//     move lowers the global cost) holds for every migration performed.
//     Each verdict is recorded where it is reached — one audit record
//     and one EvVerdict trace event, in decision order.
//
//     The clean rule. A staged commit u → t of ring s whose ring hands
//     in its near marks (Marks: the VMs its commits moved and their
//     peers) lands on its staged verdict — ΔC and admission as the ring
//     found them, and the staged ΔC as the realized one — when (a) no
//     ring merged before s this round marked u near, and (b) no earlier
//     commit of ring s was dropped this round. Everything else is
//     re-validated: near commits, commits after a drop, every cross-shard
//     proposal, and every commit of a plane that hands in no marks (the
//     dom0 plane, MergeStaged). The rule is exact. The check reads u's
//     host, its peers' hosts, and t's room and NIC load. Only ring s
//     moves u. A peer another ring moved marks u near in that ring's
//     view, so (a) leaves only peers ring s moved, and under (b) those
//     all landed as staged. A host's room and NIC load change only when
//     a VM moves onto or off it: another ring's commits stay on its own
//     hosts, and cross-shard proposals merge after every ring. Rates sum
//     exactly on traffic's grid. So the state a clean commit is checked
//     against equals its view's, bit for bit; the scorecheck build tag
//     re-validates every clean commit anyway and panics on a difference.
//     TestMergeCleanRuleFollowsDrops fails without either half of the
//     rule. About 80 % of the commits of a first k=24 round over 24 pod
//     shards land clean (BenchmarkColdMerge).
//
// The round is where the two scheduler planes meet: both run one Driver
// (round number and trace start, the tuner's plan, the host→shard table,
// the rings run, the merge fed in shard order, the Round). A Plane
// supplies what differs: its host count, and Run, which builds its rings
// from its own placement and the table, runs them, and hands back their
// staged commits and proposals with their provenance (AuditMeta) and the
// Env the merge prices, admits, locates and executes moves against. The
// Coordinator is the Driver over views on the worker pool;
// hypervisor.Reconciler is the Driver over dom0 agent rings, which its
// Run lists from the placement registry and supervises over the wire.
// Every merge pass is one replay loop, one decision at a time, over the
// plane's Env; a plane whose probes cost round trips warms its own state
// before handing the moves in. Apply executes a checked move and does not
// price it again: the ΔC the merge checked is the realized one. A
// round's decisions live in storage sized once, not grown by append, so
// no shape the tuner picks regrows it. The in-process plane keeps one
// arena of decisions sized to the placed VMs: ring s gets a segment as
// long as its population, its view stages commits from the front and the
// pass writes proposals from the back, and a VM is decided at most once
// a pass, so the two never meet (the scorecheck build tag checks both).
// Once the rings are done the Driver reserves the merge's lists — the
// applied and rejected moves and the queued proposals — to what the
// round's decisions can fill, on both planes. The list of applied moves
// is lent to the Round until the next RunRound: a warm cold round
// allocates only the Round and its per-shard stats, whatever shape the
// round before it ran (TestWarmColdRoundAllocs), and under the scorecheck
// build tag the lent list is overwritten with garbage before it is
// reused, so a caller that kept it too long reads NaNs.
//
// Which work runs where. The caller of RunRound runs the round; on the
// in-process plane the Coordinator's worker pool lends it helpers, parked
// between rounds, for three pieces. The rings run on the caller and the
// helpers together. At the round's start the engine's changelog fold
// (core.Engine.Sync: the accounting follower and the visit memo) runs on
// a helper while the caller asks the tuner for its plan and reshapes the
// partition; the view resets then find it done. Once the rings are done
// the caller queues every ring's proposals and a helper sorts the queue
// into the canonical order while the caller replays the staged commits,
// so the cross-shard pass replays a sorted queue. Each overlap's two
// sides only read the cluster and the traffic matrix, and write disjoint
// state: the engine's accounting and memo against the controller's
// summary and the partition; the proposal queue against the engine, the
// cluster and the merge's lists (TestLanesMatchInline, under the race
// detector in CI). Everything else — the ring patch, the view resets, the
// replay, the cross-shard pass — runs on the caller. The agent plane has
// no fold and no pool: its Driver sorts the queue inline before the
// replay.
//
// Because each ring's outcome depends only on the frozen round-start
// state and its own staged moves, and the merge phase runs in a fixed
// order, a run's output is byte-for-byte identical for any GOMAXPROCS
// and any worker-pool size. With a single shard the coordinator
// degenerates to the paper's serial token pass.
//
// A ring's token visit is core.AllocView.Visit: the BestMigration
// kernel, skipped for a holder whose last full evaluation found no move
// and whose dependencies have not changed since (core's visit memo; the
// decision is always the kernel's). Most holders of a converged round are
// not visited at all: the pass ANDs each ring word with the view's
// Unsettled word — the memo's settled bits (a verdict with no move and no
// refusal) less the VMs the ring's staged commits marked near — and
// visits only what is left, re-reading the word after each visit, whose
// commit may mark a later holder near. A holder it passes over is one
// Visit would skip at its first test, so it counts as skipped and the
// decisions and the skip set are the ones a visit per holder gives. A
// visited skip is a verdict load and a test of the near marks; only a
// holder near a staged move, or one whose verdict had a refusal, walks its
// traffic row. ShardRound.Skipped and score_token_visits_total{outcome}
// count the two outcomes. A staged commit that the merge phase drops is
// reported to the engine (RejectObserver) so verdicts computed against it
// are voided.
//
// A partition's rings follow the placement table, patched from its
// changelog. "Every placed VM belongs to the shard of its current host"
// makes them a function of the table, and the cluster logs every write to
// it (cluster.MovesSince), so the in-process plane's Run starts by
// replaying the writes since the last round: each clears the VM's bit in
// its old host's shard and sets it in its new one's — the round's merged
// moves, and any move, admit or removal made between rounds. When the
// changelog cannot serve them — behind a Restore — or they number more
// than 2,048 (the partition's own crossover, past which a refill costs
// less), after an ID-window regrow, and on a partition just reshaped for
// a new shard shape (in place: the table and the bitmaps keep their
// storage), the rings are refilled instead: every bitmap cleared,
// then one bit set per placed VM, about 4–6 ns per VM on a 2-vCPU Xeon VM
// (k=24, BenchmarkPartitionRefill, ≈ 0.45–0.6 ms). A shard's view keeps
// no table to follow: it reads the cluster's own, frozen for the decision
// phase, plus an overlay of what its ring staged (core.AllocView), and its
// reset (core.Engine.ResetView) undoes only that — the near words and
// staged positions its commits set and the deltas of the hosts they
// touched. A converged k=24 round's reset of 24 views plus the ring
// patch costs ≈ 2 µs after 100 merged moves (BenchmarkQuietRoundReset);
// the restored daemon's shape, 128 rack shards at k=16, resets and
// patches in ≈ 0.03–0.05 ms after 250 merged moves its views staged
// (BenchmarkRackShardReset). The cold rounds after a Restore, each
// thousands of moves, refill the rings.
// TestPatchedEqualsRefilled holds patched rings to a fresh partition, and
// every view, during its decision phase, to the cluster's table plus its
// own commits, round after round. Nothing observes
// the cluster on the partition's behalf: the log is passive. (The agent
// plane keeps no bitmaps: its rings are lists read off its sorted
// registry each round.)
//
// The worker pool (Pool) is exported separately: the GA baseline reuses
// it to fan population fitness evaluation and memetic local search over
// the same bounded concurrency. Its helpers start at its first fan-out
// and stay parked between calls, so a call allocates nothing; Close (and
// Coordinator.Close) stops them, and a pool dropped without Close stops
// them once it is garbage collected.
package shard
