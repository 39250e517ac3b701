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
//     partition's own VM list, walked as a slice; no token is built and
//     no policy is asked. A policy that would reorder even a fresh pass
//     (Random, Lowest-Level-First) is refused by NewCoordinator; it
//     belongs to the single persistent token of sim.Runner.
//
//  3. The merge phase (Merge, merge.go). After all rings finish, each
//     ring's staged intra-shard commits are replayed in shard order,
//     then the queued cross-shard proposals in a deterministic order
//     (descending staged ΔC, then VM ID, then target). Every move is
//     re-validated — ΔC > c_m and admissible — against the allocation
//     the move before it left, because a staged ΔC was computed against
//     frozen cross-shard peer positions and an earlier-merged shard may
//     have moved a peer since; so Theorem 1's guarantee (every applied
//     move lowers the global cost) holds for every migration performed.
//     Each verdict is recorded where it is reached — one audit record
//     and one EvVerdict trace event, in decision order.
//
// The round is where the two scheduler planes meet: both run one Driver
// (round number and trace start, the tuner's plan, the host→shard table,
// the rings filled and run, the merge fed in shard order, the Round). A
// Plane supplies what differs: its host count, its placement (Fill), and
// Run, which runs its rings and hands back their staged commits and
// proposals with their provenance (AuditMeta) and the Env the merge
// prices, admits, locates and executes moves against. The Coordinator is
// the Driver over views on the worker pool; hypervisor.Reconciler is the
// Driver over dom0 agent rings, which its Run supervises over the wire.
// Every merge pass is one replay loop, one decision at a time, over the
// plane's Env; a plane whose probes cost round trips warms its own state
// before handing the moves in.
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
// decision is always the kernel's). ShardRound.Skipped and
// score_token_visits_total{outcome} count the two outcomes. A staged
// commit that the merge phase drops is reported to the engine
// (RejectObserver) so verdicts computed against it are voided.
//
// A partition's rings are filled, not kept. "Every placed VM belongs to
// the shard of its current host" makes them a function of the placement
// table, so a round starts by refilling them from it in one ascending
// pass (the in-process plane walks cluster.DenseAlloc, the agent plane
// its sorted registry) — about 2.4 ns per VM, into storage the previous
// round left behind. Only the host→shard table, which depends on the
// topology and the shard shape alone, outlives a round. Nothing observes
// the cluster on the partition's behalf, and a move, admit, removal or
// Restore between rounds needs no case here.
//
// The worker pool (Pool) is exported separately: the GA baseline reuses
// it to fan population fitness evaluation and memetic local search over
// the same bounded concurrency.
package shard
