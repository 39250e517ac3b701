// Package hypervisor implements the paper's Section V-B deployment: a
// per-server dom0 agent that maintains flow statistics, receives the
// migration token on behalf of its hosted VMs, locates peers in the
// placement registry, probes candidate servers for capacity, makes the
// unilateral S-CORE migration decision, and forwards the token — over
// either an in-memory transport (tests, simulation) or real TCP sockets
// (the paper's token listener on a known dom0 port behind a NAT
// redirect).
//
// # Global ring
//
// The paper's mode circulates one token: a MsgToken visit runs the full
// Section V-B pipeline at the holder's dom0 (aggregate load, locate
// peers in the Registry, rank candidate servers, probe capacity with
// MsgCapacityReq/Resp, decide via Theorem 1, execute the move with
// MsgMigrate/MigrateAck) and forwards the token to the next holder under
// the configured policy. Decisions execute immediately, serialized by
// the single token, through the same transfer as a sharded commit
// (same-ReqID re-sends, then the registry; see the failure model).
//
// # The decision
//
// Every visit, on either ring, decides through core.Kernel, the rule the
// in-process planes run: peers ranked by level, then rate; candidates
// are each peer's host, then the rest of its rack (Section V-B5); ΔC is
// Eq. 5, and only a candidate offering more than c_m and the running best
// is probed, by MsgCapacityReq to the dom0 the registry names for it.
// Admission is core.Admit, the in-process planes' rule, over the capacity
// response (free slots, RAM and CPU, CPU and NIC capacity, and the NIC
// load the dom0 sums from its VMs' rates to peers elsewhere) adjusted by
// the ring's staged moves, each carrying its demand and NIC-load changes;
// so agent rounds equal shard.Coordinator rounds move for move. The
// reconciler re-validates on the same kernel and rule, over the row and
// demand a staged move carried.
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
//     host→shard table (over the registered hosts); the plane pushes it
//     to every agent with MsgShardAssign, acknowledged by
//     MsgShardAssignAck, and lists each shard's ring straight from the
//     registry — every registered VM, in ascending ID order, whose host
//     acked. The assignment names the reconciler's address and the round
//     number.
//
//  2. Concurrent rings. The reconciler builds one token per shard
//     (token.Rings) and injects each at its lowest-ID VM with
//     MsgShardToken. A shard token carries a RingState blob alongside the
//     encoded token: the ring's staged intra-shard moves and queued
//     cross-shard proposals, each with the VM's peer-rate table. During a
//     round *no migration executes*: a holder's decision overlays the
//     ring's staged moves onto the registry's round-start locations and
//     probed capacities, stages intra-shard moves into the state, and
//     queues proposals whose best target lies in another shard. The rings
//     run concurrently — each is serialized by its own token, and because
//     the authoritative state is frozen for the round, any interleaving
//     of probe traffic yields the same decisions. When a ring completes
//     its pass (every shard VM visited once), the final holder's agent
//     ships the state to the reconciler with MsgRingDone. A holder
//     forwards the shard token to its ring successor — the next VM ID in
//     the token — and that is the only order: a token rebuilt every round
//     carries no history for AgentConfig.Policy, which only the global
//     ring's persistent MsgToken consults (token.RingOrder). The shard
//     token's entry list is the ring's membership — what a visit's
//     successor is read from and what regeneration evicts a crashed
//     host's VMs from.
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
//     the hop/attempt provenance they carried over the wire. It supplies
//     no near marks (shard.Marks), so the merge re-validates every move.
//
// With one shard the staged overlay reproduces the global ring's
// immediate-execution decisions bit for bit, and the merge re-check
// never fires — a 1-shard sharded round is byte-identical to a global
// ring pass.
//
// # Where a VM is
//
// The Registry is the plane's one answer to "where is this VM": agents
// read a peer's or a moved holder's server from Registry.HostOfVM, the
// lookup the reconciler's merge and ring lists read. It stands in for the
// paper's NAT redirect and its host directory for the dom0's static
// address that Section V-B4's location response carries, so a location
// request would tell the sender only what it had already looked up, and
// the plane sends none.
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
//   - Eviction. A holder that swallows evictAttempts (two) consecutive
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
// The reconciler derives its shard assignment from live measurements;
// its recovery deadline stays fixed:
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
//   - Recovery deadline. Every shard's progress deadline is
//     ShardDeadline, in every round; there is no learned one. A
//     per-shard latency estimate (EWMA + k·stddev of per-hop ack
//     latency) once sat beside it behind a switch, and under injected
//     delay both rules gave the identical migration sequence and final
//     placement: regeneration is behavior-neutral, because the attempt
//     number discards the slow original, so a deadline decides only how
//     much recovery work is wasted, never what is migrated. A fixed
//     deadline below a hop's delay still regenerates a live ring; the
//     stale-attempt report that proves it counts a witnessed-spurious
//     regeneration (RingReport.Spurious).
package hypervisor
