package shard

import (
	"time"

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
	// The phase clock (score_round_phase_seconds{phase=…}): each round
	// observes once per phase, and the phases tile the round, so their
	// sums add up to RoundLatency's. Plan runs from the round's start
	// until the driver has the round's partition: the tuner's Plan (the
	// controller's summary fold or rebuild) and, when the shape changed,
	// the host→shard table. Patch runs from there until the plane's ring
	// lists are up to date — the ring patch in process, and on the agent
	// plane, which keeps no views, everything up to its rings' start: the
	// assignment push and the ring lists; Reset, the view resets, until
	// the rings are ready (Merge.Prepared), 0 on the agent plane; Rings
	// until they are done; Merge replays the staged commits in shard
	// order, and waits for the proposals' sort that runs beside it; Cross
	// reconciles the cross-shard proposals.
	PhasePlan, PhasePatch, PhaseReset, PhaseRings, PhaseMerge, PhaseCross *obs.Histogram
	// PhaseFold is the plane's changelog fold (core.Engine.Sync), which
	// runs on a pool worker beside the plan and is timed there, so it
	// tiles nothing: the plan, the caller's span, includes any wait for
	// it. Observed once per round on the in-process plane; the agent
	// plane has no fold.
	PhaseFold *obs.Histogram
}

// lap observes on h the time since the previous phase ended and returns
// the end of this one, where the next phase begins.
func lap(h *obs.Histogram, since time.Time) time.Time {
	now := time.Now()
	h.Observe(now.Sub(since).Seconds())
	return now
}

// NewMetrics registers (or re-binds, get-or-create) the scheduler families
// on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	visits := reg.CounterVec("score_token_visits_total", "Token visits by outcome: skipped (no-move verdict still valid) or evaluated in full.", "outcome")
	phases := reg.HistogramVec("score_round_phase_seconds", "Wall-clock time of each phase of a scheduling round: plan, patch, reset, rings, merge, cross; and fold, which runs beside plan.", "phase", obs.DefLatencyBuckets)
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
		PhasePlan:      phases.With("plan"),
		PhasePatch:     phases.With("patch"),
		PhaseReset:     phases.With("reset"),
		PhaseRings:     phases.With("rings"),
		PhaseMerge:     phases.With("merge"),
		PhaseCross:     phases.With("cross"),
		PhaseFold:      phases.With("fold"),
	}
}
