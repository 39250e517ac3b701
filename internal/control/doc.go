// Package control is the adaptive control plane: a deterministic
// feedback controller that derives the sharded schedulers' structural
// knobs — shard count and shard granularity — from live measurements
// instead of fixed flags.
//
// It closes one loop the paper leaves open when S-CORE is deployed at
// scale, traffic → partition. A Summary keeps the pairwise VM traffic
// matrix at the resolution the planner reads it: the three
// communication-locality sums (intra-rack / intra-pod / cross-pod) and
// the dense pod × pod table of cross-pod rates. A traffic.Follower folds
// the rate changes and placement writes logged since the last plan into
// it, never by rescanning the matrix. (A rack-level
// heatmap such as Fig. 3a is traffic.TorMatrix, one pass on demand;
// nothing here keeps one.) Plan turns the summary into a Recommendation
// — shard count and granularity — under the partitioner's own
// contiguous-block unit mapping: the largest count whose cross-shard
// rate share stays under a threshold, so pod-local workloads fan out to
// one ring per pod while cross-pod-heavy workloads collapse toward the
// serial token (whose reconciliation queue they would otherwise flood).
//
// Cost: the fold is O(changes · degree) array adds. Plan is O(pods²) per
// candidate shard count and scores at most pods of them, allocating
// nothing.
//
// A Controller bundles the summary and the planner, with hysteresis,
// behind the shard.Tuner interface every sharded round driver consumes:
// the in-process shard.Coordinator, the resident service's loop and the
// distributed hypervisor.Reconciler re-partition between rounds when the
// recommendation changes. (The dom0 plane's per-shard recovery deadlines
// are its own: the reconciler learns them from its ring acks.) All state
// transitions are deterministic functions of the observation sequence,
// so auto-tuned runs stay byte-identical across GOMAXPROCS settings.
package control
