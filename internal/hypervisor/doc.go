// Package hypervisor implements the paper's Section V-B deployment: a
// per-server dom0 agent that maintains flow statistics, receives the
// migration token on behalf of its hosted VMs, probes peers for location
// and capacity, makes the unilateral S-CORE migration decision, and
// forwards the token — over either an in-memory transport (tests,
// simulation) or real TCP sockets (the paper's token listener on a known
// dom0 port behind a NAT redirect).
//
// # Global ring
//
// The paper's mode circulates one token: a MsgToken visit runs the full
// Section V-B pipeline at the holder's dom0 (aggregate load, locate
// peers with MsgLocationReq/Resp, rank candidate servers, probe capacity
// with MsgCapacityReq/Resp, decide via Theorem 1, execute the move with
// MsgMigrate/MigrateAck) and forwards the token to the next holder under
// the configured policy. Decisions execute immediately, serialized by
// the single token.
//
// # The decision
//
// Every visit, on either ring, decides through core.Kernel, the rule the
// in-process planes run: peers ranked by level, then rate; candidates
// are each peer's host, then the rest of its rack (Section V-B5); ΔC is
// Eq. 5, and only a candidate offering more than c_m and the running best
// is probed, by MsgCapacityReq to the dom0 the registry names for it.
// Admission is the capacity response's free slots and RAM, adjusted by
// the ring's staged moves; there is no CPU or NIC check, so 1-shard
// rounds equal a 1-shard shard.Coordinator's with BandwidthThreshold 0 on
// hosts without CPU capacity. The reconciler re-validates on the same
// kernel, over the row a staged move carried.
//
// # Sharded rings and the reconciliation agent
//
// The sharded mode removes the global serialization the same way the
// in-process scheduler (internal/shard) does — it runs the same round,
// shard.Driver, over a different shard.Plane — with the partition →
// concurrent rings → merge/reconcile cycle expressed as a wire protocol:
//
//  1. Partition. A Reconciler agent — the coordinator-side peer of the
//     dom0 agents, colocated with the placement manager's Registry — is
//     the driver's agent plane: the driver keeps the topology-aligned
//     host→shard table (over the registered hosts) and fills its rings
//     from the registry, not a cluster; the plane pushes the table to
//     every agent with MsgShardAssign, acknowledged by
//     MsgShardAssignAck. The assignment names the reconciler's address
//     and the round number.
//
//  2. Concurrent rings. The reconciler builds one token per shard
//     (token.Rings) and injects each at its lowest-ID VM with
//     MsgShardToken. A shard token carries a RingState blob alongside
//     the encoded token: the ring's staged intra-shard moves and queued
//     cross-shard proposals, each with the VM's peer-rate table. During
//     a round *no migration executes*: a holder's decision overlays the
//     ring's staged moves onto probed round-start locations and
//     capacities, stages intra-shard moves into the state, and queues
//     proposals whose best target lies in another shard. The rings run
//     concurrently — each is serialized by its own token, and because
//     the authoritative state is frozen for the round, any interleaving
//     of probe traffic yields the same decisions. When a ring completes
//     its pass (every shard VM visited once), the final holder's agent
//     ships the state to the reconciler with MsgRingDone. A holder
//     forwards the shard token to its ring successor — the next VM ID
//     in the token — and that is the only order: a token rebuilt every
//     round carries no history for AgentConfig.Policy, which only the
//     global ring's persistent MsgToken consults (token.RingOrder). The
//     shard token's entry list is the ring's membership — what a
//     visit's successor is read from and what regeneration evicts a
//     crashed host's VMs from.
//
//  3. The merge phase. Once every ring reports, the plane hands the
//     rings' staged output back to the driver, which feeds shard.Merge
//     exactly as for the in-process plane, so the two planes cannot
//     drift: every move is re-validated against live post-merge state
//     (Theorem 1 holds for every committed migration) and recorded —
//     audit, trace, metrics — by the phase itself. This plane supplies
//     the Env (reconcileEnv: locations from the registry, ΔC from the
//     peer-rate tables the moves carried, capacity from one concurrent
//     probe wave to every distinct target before the replay, cached for
//     the phase with each of its own commits folded in; Apply by asking
//     the source dom0 to ship the VM: MsgReconcileCommit → MsgMigrate →
//     MsgReconcileResp), each RingState's staged moves minus those
//     touching a host evicted this round (withdrawn from the merge), and
//     the hop/attempt provenance they carried over the wire; after the
//     merge it announces the rejected moves with MsgReconcileAbort so
//     agents can drop stale location-cache entries.
//
// With one shard the staged overlay reproduces the global ring's
// immediate-execution decisions bit for bit, and the merge re-check
// never fires — a 1-shard sharded round is byte-identical to a global
// ring pass. Executed migrations update the registry, which invalidates
// every agent's TTL location cache for the moved VMs (a cached entry is
// served only while the registry still names the dom0 that answered the
// probe), so rings in later rounds never act on pre-merge locations.
//
// # Failure model & recovery
//
// The sharded plane tolerates message loss, message duplication and
// delay, and crashed (or partitioned) dom0 agents. The paper regenerates
// a lost global token at the hypervisor level; the sharded plane's
// equivalent is reconciler-driven ring regeneration:
//
//   - Progress acks. Every shard-token visit, after forwarding the
//     token, reports the identical post-visit RingState to the
//     reconciler with MsgRingAck, naming the next holder. The
//     reconciler keeps, per shard, the furthest-advanced acked state —
//     a copy of everything the ring has staged so far.
//
//   - Per-shard deadlines. A ring that produces no accepted progress
//     (ack or completion) for ShardDeadline is presumed lost. The
//     reconciler regenerates it from its copy: the attempt sequence
//     number is incremented, the token re-injected at the holder it was
//     last handed to, with all acked staged moves intact. Work after
//     the last ack is simply re-decided; work before it survives.
//
//   - Attempt sequence numbers. RingState carries a per-round/per-shard
//     Attempt; the reconciler accepts acks and MsgRingDone only for the
//     current attempt. A presumed-lost token that was merely slow (or a
//     fork created by a duplicated frame) keeps circulating harmlessly:
//     nothing executes during a round, and its staged state is
//     discarded at the reconciler, so a regenerated ring can never
//     double-apply a move.
//
//   - Eviction. A holder that swallows EvictAttempts consecutive
//     re-injections without advancing the ring is presumed crashed: all
//     ring slots of its host's VMs are removed from the token and the
//     token resumes at the ring successor. The hop limit is left alone
//     — which evicted entries were already visited is unknowable, so
//     surviving entries absorb the dead host's remaining slots as extra
//     re-visits rather than risk ending the pass before every live VM
//     was seen. A host that fails to ack a round's MsgShardAssign is
//     evicted for that round up front. Evicted hosts' VMs keep their
//     placement (dropped, not moved); staged moves whose VM sits on —
//     or whose target is — an evicted host are discarded at merge time.
//     If the copy already covers the full pass (only the MsgRingDone
//     was lost) or eviction empties the ring, the shard is finalized
//     directly from the reconciler's copy.
//
//   - Exactly-once commits. Ring-level dedup comes from the attempt
//     number: exactly one RingState per shard per round is merged, and
//     the merge executes each surviving move once, re-validated against
//     live state (Theorem 1 holds for everything that lands, faults or
//     not). Message-level dedup guards the execution path itself:
//     agents record (reply address, ReqID) for MsgReconcileCommit and
//     MsgMigrate and replay the recorded response on duplicates, while
//     the senders re-send with the SAME ReqID on timeout — at-least-
//     once delivery, exactly-once execution. If every ack of a landed
//     transfer is lost anyway, the source consults the authoritative
//     registry (updated by the target before it acks) before declaring
//     failure, so a VM's record never splits across two dom0s; the
//     reconciler, when every commit response is lost, waits out the
//     source's transfer budget and asks the registry too, so a landed
//     move is reported applied. A move whose commit retries are
//     exhausted against a genuinely dead dom0 is rejected by the merge
//     like any stale move; it never aborts the round.
//
// With fault injection disabled the recovery machinery is pure overhead
// bookkeeping — no regeneration fires and the wrapped plane's output is
// bit-identical to the unwrapped one. FaultPlan/FaultTransport provide
// the deterministic, seeded chaos harness (drop/duplicate/delay
// schedules, per-type filters, partitions) the suite tests this under.
//
// # Adaptive control
//
// The reconciler's structural knobs need not be fixed flags; both are
// derived from live measurements:
//
//   - Shard assignment. ReconcilerConfig.Tuner, a shard.Tuner, supersedes
//     the fixed Shards/Granularity: every RunRound asks it for the shard
//     count and granularity. The adaptive control plane's
//     control.Controller folds the traffic matrix's ToR-level hotspot
//     structure incrementally from its changelog and picks the count
//     whose contiguous-block partition keeps the cross-shard rate share
//     under a threshold. Pod-local workloads fan out to one ring per pod;
//     cross-pod-heavy workloads collapse toward the serial token instead
//     of flooding the reconciliation queue with proposals. The round's
//     choice is recorded in the report's shard.Round: Granularity, and
//     one Shards entry per ring.
//
//   - Adaptive deadlines. ReconcilerConfig.AdaptiveDeadline replaces
//     the fixed ShardDeadline with the reconciler's own per-shard EWMA +
//     k·stddev estimates of per-hop progress latency, fed from
//     MsgRingAck arrival times (the fixed value remains the warm-up
//     fallback). The estimator has no settings: its smoothing factor,
//     margin, hop budget, warm-up, 10ms floor, 1m cap and 64× boost cap
//     are the est* constants. It forgets its estimates when the ring
//     shape (shard count or granularity) changes, and mirrors them into
//     PlaneMetrics (score_control_hop_latency_seconds and
//     score_control_hop_stddev_seconds). A stale-attempt report — proof
//     that a presumed-lost token was alive — counts a witnessed-spurious
//     regeneration (RingReport.Spurious) and applies a multiplicative
//     backoff, so slow-but-alive rings on loaded hosts stop being
//     regenerated even before accepted samples raise the estimate; on a
//     healthy fabric the estimate collapses toward the floor, catching
//     genuinely dead rings orders of magnitude faster than a
//     conservative fixed deadline. Regeneration remains behavior-neutral
//     either way: the chaos suite asserts the fixed- and
//     adaptive-deadline planes produce identical migration sequences
//     under injected delay, differing only in wasted recovery work.
package hypervisor
