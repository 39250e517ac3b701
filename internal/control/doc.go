// Package control is the adaptive control plane: a deterministic
// feedback controller that derives the sharded schedulers' structural
// knobs — shard count, shard granularity, and per-shard recovery
// deadlines — from live measurements instead of fixed flags.
//
// It closes two loops the paper leaves open when S-CORE is deployed at
// scale:
//
//   - Traffic → partition. A Summary keeps the pairwise VM traffic
//     matrix at the resolution the planner reads it: the three
//     communication-locality sums (intra-rack / intra-pod / cross-pod)
//     and the dense pod × pod table of cross-pod rates. It is folded
//     incrementally — rate mutations arrive through
//     traffic.Matrix.ChangesSince and placement mutations through cluster
//     observation hooks — never by rescanning the matrix. (A rack-level
//     heatmap such as Fig. 3a is traffic.TorMatrix, one pass on demand;
//     nothing here keeps one.) Plan turns the summary into a
//     Recommendation — shard count and granularity — under the
//     partitioner's own contiguous-block unit mapping: the largest count
//     whose cross-shard rate share stays under a threshold, so pod-local
//     workloads fan out to one ring per pod while cross-pod-heavy
//     workloads collapse toward the serial token (whose reconciliation
//     queue they would otherwise flood).
//
//   - Latency → deadlines. A LatencyEstimator maintains per-shard
//     EWMA + k·stddev estimates of per-hop progress latency, fed from
//     the reconciler's MsgRingAck arrival timestamps. Its Deadline
//     replaces the fixed ShardDeadline: slow-but-alive rings on loaded
//     hosts stop being spuriously regenerated (a stale-attempt report
//     that proves a presumed-lost token was alive additionally applies a
//     multiplicative penalty, the TCP-RTO-style escape hatch for rings
//     slower than the current estimate), while on a healthy fabric the
//     estimate collapses toward EstimatorConfig.Min and genuinely dead
//     rings are caught orders of magnitude faster than the conservative
//     fixed default.
//
// Cost: the fold is O(changes · degree) array adds. Plan is O(pods²) per
// candidate shard count and scores at most pods of them, allocating
// nothing.
//
// A Controller bundles the three pieces behind the shard.Tuner interface
// consumed by both decision planes: the in-process shard.Coordinator
// re-partitions between rounds when the recommendation changes, and the
// distributed hypervisor.Reconciler uses the same controller for shard
// assignment and adaptive per-shard deadlines. All state transitions are
// deterministic functions of the observation sequence, so auto-tuned
// runs stay byte-identical across GOMAXPROCS settings.
package control
