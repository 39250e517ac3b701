// Package obs is the repo's dependency-free observability plane: a
// zero-allocation metrics registry, a fixed-capacity round tracer, a
// per-migration audit ring, an anomaly-triggered flight recorder, and an
// HTTP endpoint exposing Prometheus text format, the trace and audit
// rings as JSON, and net/http/pprof. cmd/scored mounts the full surface
// on its API listener; scoresim and scorebench mount it behind
// -metrics-addr.
//
// # Registry
//
// A Registry holds metric families keyed by name. Registration is
// get-or-create: two subsystems asking for the same name receive the same
// underlying metric. That is deliberate — the in-process shard.Coordinator
// and the distributed hypervisor.Reconciler both account rounds, migrations
// and cross-shard traffic into the same families. The registry is for
// scraping: internal/sim records into it but never reads it back, and its
// sim.Metrics totals are summed from what each round returns.
// All registration happens at construction time (NewMetrics-style helpers in
// each subsystem); record paths (Counter.Inc/Add, Gauge.Set/Add,
// Histogram.Observe, Vec.At) are single atomic operations proven 0 allocs/op
// by TestRecordPathsAllocFree and safe for any number of concurrent writers.
//
// # Naming conventions
//
// Metric names follow Prometheus style, snake_case with the subsystem after
// the score_ prefix:
//
//	score_<noun>_<unit|total>                 shared scheduler families
//	score_<subsystem>_<noun>_<unit|total>    subsystem-specific families
//
// Units are base SI: _seconds for durations, _bytes for sizes. Monotonic
// counters end in _total; distributions are histograms named for what they
// measure (score_round_latency_seconds). Gauges carry no suffix beyond the
// unit. Families shared across subsystems (score_rounds_total,
// score_round_latency_seconds, score_migrations_total, the cross-shard
// counters) MUST be registered with the same kind and — for histograms — the
// same buckets everywhere; the registry panics at construction otherwise.
// Use DefLatencyBuckets for latency series so shared families agree by
// default.
//
// # Cardinality rules
//
// Labels multiply series count, and every series is live memory plus scrape
// bytes forever. The rules:
//
//   - At most ONE label per family, and only labels with a small, bounded,
//     operator-meaningful domain. The only label in use is shard (bounded by
//     MaxShards-scale numbers, typically ≤ 64).
//   - Never label by VM, host, or any identifier that scales with instance
//     size (a k=32 fat-tree has 8192 hosts / 245k VMs). Per-entity detail
//     belongs in the Tracer, which is bounded by its ring capacity.
//   - Vec.At(i) caches children by dense integer index and is the only
//     labeled call allowed on hot paths.
//
// # Adding a metric
//
// Add the field to the owning subsystem's Metrics struct (shard.Metrics,
// hypervisor.PlaneMetrics, control.Metrics) and register it in that struct's NewMetrics constructor with name, help text
// and — for histograms — explicit buckets. Guard every record site with a
// nil check on the Metrics handle so un-instrumented paths (benchmarks, unit
// tests) pay only an untaken branch. If the hot path is one of the gated
// benchmarks, extend the alloc regression test alongside.
//
// # Tracing
//
// Tracer is a mutex-guarded ring buffer of fixed-size typed Events —
// token visits, ring completions, regenerations, spurious regens, evictions,
// reconcile verdicts, compactions — cheap enough
// (~tens of ns, 0 allocs) to leave on. Spans folds a Snapshot into per-round,
// per-shard aggregates; the chaos suite uses it to reconstruct a lossy round
// (regen counts, attempt numbers, evicted hosts) from the trace alone.
//
// # Audit records
//
// AuditRing is the decision-provenance plane: one fixed-size AuditRecord
// per staged migration decision, appended by the shared merge phase
// (shard.Merge) at the site that also writes the EvVerdict trace event —
// so the in-process Coordinator and the distributed Reconciler emit
// identical provenance by construction.
// Each record carries the round, shard, token attempt and hop the
// decision was made at, the VM and source→destination hosts, the staged
// ΔC and the re-validated (applied: realized) ΔC as exact float64 bit
// patterns, and a verdict (merged, stale, cross_applied,
// cross_rejected). Append is 0 allocs/op (TestAuditAppendAllocFree) and
// a nil ring disables auditing with a single untaken branch. The ring is
// queryable as JSON at /audit (and scored's /v1/audit) filtered by
// ?vm= and ?round=; AuditJSONRecord round-trips records bit-exactly via
// staged_bits/final_bits alongside the human-readable float renderings.
//
// Tracer and AuditRing are one generic fixed-record ring (ring.go) under
// two record types; Ring is the same ring for other records (scored's
// round history). Handler exports what each has overwritten as
// score_trace_dropped_total and score_audit_dropped_total, read from the
// ring at scrape time.
//
// # Flight recorder
//
// FlightRecorder is the incident-capture plane: armed threshold rules
// (round-latency window mean exceeding k times its own EWMA, a counter
// advancing — the backpressure-503 trigger, a gauge rising — the
// cost-increase trigger) are polled on a fixed cadence, and any firing
// rule bundles the registry exposition, the trace ring, the audit-ring
// tail, and pprof heap+CPU captures into one timestamped directory with
// a meta.json manifest. Its only settings are the bundle directory and
// the logger; the rest are constants. Rules are polled every 5 s, the
// CPU profile samples for 250 ms and the audit file carries the newest
// 4,096 records. A directory keeps at most 8 bundles (oldest pruned
// first) and automatic captures are at least a minute apart, so a
// flapping rule cannot fill a disk; a manual Force — scored's
// POST /v1/flightrecorder — bypasses the rate limit but not the bound.
package obs
