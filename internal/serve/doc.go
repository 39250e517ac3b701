// Package serve is the resident placement service behind cmd/scored:
// a daemon that owns a live cluster.Cluster + traffic.Matrix and keeps
// the S-CORE scheduling plant (core.Engine, control.Controller,
// shard.Coordinator) running against them while the workload streams
// in — the deployment mode the paper's Section V describes, where the
// algorithm "runs continuously" against measured traffic instead of
// replaying a canned scenario.
//
// # Concurrency model
//
// One state-loop goroutine owns every mutation. HTTP handlers convert
// requests into ops and submit them over a bounded channel; the loop
// applies them in arrival order (batched per lock acquisition) and, in
// auto mode, interleaves scheduling rounds from a ticker. Read-only
// endpoints take a read lock and touch only non-folding accessors, so
// GETs never contend with ingest beyond the lock itself.
//
// # Backpressure contract
//
// The op queue is bounded (Config.IngestQueue). A submission that finds
// it full blocks for Config.EnqueueTimeout and is then dropped with
// ErrBacklogged, surfaced as HTTP 503 (with Retry-After) and counted in
// score_ingest_backpressure_total. The contract is exact: a 2xx reply
// means the operation was applied to the live state before the reply
// was written; a 503 means it was dropped and counted, and the client
// owns the retry. Nothing is ever silently lost in between.
//
// # Streaming ingest
//
// POST /v1/observe carries one source's batch of absolute rate samples
// (sFlow-style): each {a, b, rate_mbps} replaces the pair's previous
// rate via traffic.Matrix.Set, so re-announcing an unchanged rate is a
// no-op delta for every changelog consumer and a zero-valued sample
// retires the pair. rate_mbps is stored to the nearest 2^-20 Mb/s
// (≈ 1 bit/s; a positive rate below that as 2^-20), and that is the
// rate a snapshot holds. Batches are capped at 4096 samples. Samples
// naming unplaced or unknown endpoints, self-pairs, or rates that are
// negative, non-finite or above 2^32 Mb/s are rejected individually and
// reported in the reply — one bad sample does not poison its batch.
//
// A body in canonical form is decoded by a one-pass scanner into pooled
// scratch, with no allocation; any other body by encoding/json, as on
// every other route. Which one ran cannot be told from the reply: the
// scanner takes only bodies it decodes to the same samples, bit for bit
// (FuzzObserveDecode), and leaves every error to encoding/json. The
// canonical form is what an append-style encoder writes:
//
//	{"source":"dom0-17","samples":[{"a":12,"b":907,"rate_mbps":53.271}]}
//
// the keys source, samples, a, b and rate_mbps spelled exactly so (any
// order, any JSON whitespace, any of them omitted, none repeated), no
// null, source without backslash escapes, a and b as plain decimals, the
// rate any JSON number. Other spellings of the same batch (a "Source"
// key, an escaped source, a repeated key) decode as they always did,
// ≈ 5× slower. /metrics separates the stages:
// score_ingest_decode_seconds is the time per batch from body read to
// samples, score_ingest_fold_seconds the time per batch in
// traffic.Matrix.Set under the state lock, and
// score_ingest_decode_fallback_total counts the bodies the scanner
// declined (malformed ones included) — a client whose encoder misses
// the fast path shows up there.
//
// # HTTP API
//
//	POST   /v1/vms        admit a VM {id?, ram_mb, cpu_milli, host?};
//	                      omitted id auto-issues (sequential; recycles
//	                      free ids rather than leave the ID window),
//	                      omitted host best-fits; a pinned id must keep
//	                      the registered ids within the cluster's ID
//	                      window (span ≤ 4 × VM slots + 2²⁰), else 400
//	GET    /v1/vms/{id}   current spec + placement
//	PATCH  /v1/vms/{id}   re-spec {ram_mb?, cpu_milli?} in place
//	DELETE /v1/vms/{id}   retire the VM and its traffic row
//	POST   /v1/observe    fold a rate-sample batch {source, samples}
//	POST   /v1/rounds     step {rounds} scheduling rounds (manual mode);
//	                      rounds <= 0 runs until a round applies nothing
//	GET    /v1/status     counters, cost, round history tail
//	POST   /v1/snapshot   persist state {path?}
//
// plus the observability plane (/metrics, /trace, /debug/pprof/) from
// internal/obs on the same listener. Errors map uniformly: unknown IDs
// 404, capacity/placement conflicts 409, backpressure 503, malformed
// bodies (strict decoding — unknown fields and anything but whitespace
// after the one JSON object rejected) and pinned ids outside the ID
// window (cluster.ErrIDOutsideWindow) 400.
//
// # Rounds
//
// With Config.RoundInterval > 0 the loop runs a scheduling round per
// tick, skipping ticks while the plant is quiescent (last round applied
// nothing and no state changed since). With RoundInterval == 0 rounds
// run only on POST /v1/rounds — the deterministic mode the equivalence
// and snapshot tests drive, where the daemon is a replayable function
// of its op sequence.
//
// A round visits every VM of every ring once, in ascending ID order.
// The daemon has no forwarding-policy setting and needs none: the
// paper's policies prioritise with level estimates a persistent token
// accumulates across passes, and a round's rings are refilled from the
// placement table each time, so there is no history to prioritise with
// (see internal/shard and token.RingOrder).
//
// # Snapshot / restore
//
// A snapshot is versioned JSON holding the constructive topology spec,
// hosts, VM registry + placement, the traffic matrix with rates as raw
// IEEE-754 bits, the controller's hysteresis triple, the round counter,
// and the next auto-issued VM ID. Everything else is derived state and
// is rebuilt on Restore. Restoring yields a daemon whose subsequent
// rounds decide exactly as the uninterrupted run's would: same
// placement, bit-identical rates, same tuner recommendation stream,
// continuous round numbering.
package serve
