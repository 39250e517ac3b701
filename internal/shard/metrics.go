package shard

import (
	"github.com/score-dc/score/internal/obs"
)

// Metrics is the scheduler's instrumentation handle. The families here are
// shared by name with the distributed plane (hypervisor.PlaneMetrics
// registers the same round/migration/cross-shard names), so whichever plane
// runs, the operator sees one coherent set of series. A nil *Metrics
// disables instrumentation at every record site.
type Metrics struct {
	// Rounds counts completed scheduling rounds; RoundLatency is their
	// wall-clock distribution.
	Rounds       *obs.Counter
	RoundLatency *obs.Histogram
	// RingPass is the per-shard token-ring pass latency (concurrent rings
	// each contribute one sample per round).
	RingPass *obs.Histogram
	// Hops counts token hops across all rings.
	Hops *obs.Counter
	// Skipped / Evaluated split the hops by token-visit outcome
	// (score_token_visits_total{outcome=…}): skipped by the quiet-VM
	// memo, or evaluated in full. Added once per round.
	Skipped   *obs.Counter
	Evaluated *obs.Counter
	// Migrations counts applied migrations; RealizedDelta accumulates
	// their summed ΔC (Eq. 5 cost reduction).
	Migrations    *obs.Counter
	RealizedDelta *obs.Gauge
	// Cross-shard reconciliation outcomes: proposals queued by rings,
	// applied after canonical-order re-validation, rejected by it.
	CrossProposals *obs.Counter
	CrossApplied   *obs.Counter
	CrossRejected  *obs.Counter
	// StaleRejected counts staged intra-shard moves dropped at merge time.
	StaleRejected *obs.Counter
	// Shards is the ring count of the latest round (the tuner's choice
	// under auto-tuning).
	Shards *obs.Gauge
}

// NewMetrics registers (or re-binds, get-or-create) the scheduler families
// on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	visits := reg.CounterVec("score_token_visits_total", "Token visits by outcome: skipped (no-move verdict still valid) or evaluated in full.", "outcome")
	return &Metrics{
		Rounds:         reg.Counter("score_rounds_total", "Scheduling rounds completed."),
		RoundLatency:   reg.Histogram("score_round_latency_seconds", "Wall-clock latency of one scheduling round.", obs.DefLatencyBuckets),
		RingPass:       reg.Histogram("score_ring_pass_seconds", "Per-shard token-ring pass latency.", obs.DefLatencyBuckets),
		Hops:           reg.Counter("score_token_hops_total", "Token hops across all rings."),
		Skipped:        visits.With("skipped"),
		Evaluated:      visits.With("evaluated"),
		Migrations:     reg.Counter("score_migrations_total", "Applied VM migrations."),
		RealizedDelta:  reg.Gauge("score_realized_delta", "Cumulative realized communication-cost reduction (summed ΔC)."),
		CrossProposals: reg.Counter("score_cross_proposals_total", "Cross-shard migration proposals queued by rings."),
		CrossApplied:   reg.Counter("score_cross_applied_total", "Cross-shard proposals applied after re-validation."),
		CrossRejected:  reg.Counter("score_cross_rejected_total", "Cross-shard proposals rejected by re-validation."),
		StaleRejected:  reg.Counter("score_stale_rejected_total", "Staged intra-shard moves dropped at merge time."),
		Shards:         reg.Gauge("score_shards", "Ring count of the latest round."),
	}
}
