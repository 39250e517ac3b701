package hypervisor

import (
	"math"
	"time"

	"github.com/score-dc/score/internal/shard"
)

// The adaptive-deadline estimator's settings.
const (
	// estAlpha is the EWMA smoothing factor applied to per-hop latency
	// observations (and, Welford-style, to their exponentially weighted
	// variance).
	estAlpha = 0.25
	// estK is the stddev multiplier of the deadline margin: deadline ∝
	// mean + estK·stddev.
	estK = 4
	// estHopBudget is how many per-hop intervals a ring may go dark
	// before it is presumed lost — the deadline is the per-hop estimate
	// times this budget.
	estHopBudget = 4
	// estWarmup is the observation count below which the estimate is not
	// trusted and the fixed ShardDeadline is used.
	estWarmup = 3
	// estMin and estMax clamp every emitted deadline. estMin keeps a
	// quiet in-memory fabric (sub-µs hops) from regenerating on scheduler
	// jitter; estMax keeps a penalized deadline under the round timeout.
	estMin = 10 * time.Millisecond
	estMax = time.Minute
	// estMaxBoost caps the multiplicative penalty applied when a
	// regeneration is witnessed spurious (a stale-attempt report proves
	// the presumed-lost token was alive).
	estMaxBoost = 64
)

// latState is one shard's estimate: EWMA mean and exponentially
// weighted variance of per-hop latency (seconds), the observation
// count, and the current spurious-regeneration penalty multiplier.
type latState struct {
	mean, variance float64
	n              int
	boost          float64
}

// latencyEstimator maintains per-shard EWMA + k·stddev estimates of
// per-hop progress latency and emits adaptive shard deadlines. Its one
// owner is the Reconciler, and only the RunRound goroutine touches it;
// given one observation sequence the emitted deadlines are deterministic.
type latencyEstimator struct {
	// shards is indexed by shard; a shard past its end has no state yet,
	// which reads as a fresh latState{boost: 1}.
	shards []latState
	// rings and gran are the ring shape the estimates were learned under.
	rings int
	gran  shard.Granularity
	// m, when set, mirrors each shard's EWMA mean and stddev on every
	// observation.
	m *PlaneMetrics
}

// shape drops every shard's state when the round's shard count or
// granularity differs from the last round's: the rings are
// re-constituted, and shard indices no longer mean what they did.
func (e *latencyEstimator) shape(rings int, g shard.Granularity) {
	if rings != e.rings || g != e.gran {
		e.shards, e.rings, e.gran = e.shards[:0], rings, g
	}
}

func (e *latencyEstimator) at(s int) *latState {
	for len(e.shards) <= s {
		e.shards = append(e.shards, latState{boost: 1})
	}
	return &e.shards[s]
}

// observe folds one per-hop progress-latency sample for shard s: the
// interval between two accepted progress reports divided by the hops
// they span.
func (e *latencyEstimator) observe(s int, perHop time.Duration) {
	if perHop < 0 {
		return
	}
	x := perHop.Seconds()
	st := e.at(s)
	if st.n == 0 {
		st.mean = x
	} else {
		diff := x - st.mean
		incr := estAlpha * diff
		st.mean += incr
		st.variance = (1 - estAlpha) * (st.variance + diff*incr)
	}
	st.n++
	if m := e.m; m != nil {
		m.HopLatency.At(s).Set(st.mean)
		m.HopStddev.At(s).Set(math.Sqrt(st.variance))
	}
}

// penalize doubles shard s's deadline (up to estMaxBoost×) after a
// regeneration was witnessed spurious: the estimate is evidently below
// the ring's true progress latency, so back off multiplicatively even
// before enough accepted samples arrive to raise the EWMA.
func (e *latencyEstimator) penalize(s int) {
	st := e.at(s)
	st.boost = min(st.boost*2, estMaxBoost)
}

// relax halves shard s's penalty after a round it completed without any
// regeneration — the decay that lets a transient overload stop inflating
// deadlines once it passes.
func (e *latencyEstimator) relax(s int) {
	st := e.at(s)
	st.boost = max(st.boost/2, 1)
}

// deadline returns shard s's adaptive progress deadline: estHopBudget
// per-hop intervals of mean + estK·stddev, times the spurious-regeneration
// boost, clamped to [estMin, estMax]. Before estWarmup observations the
// fallback (times the boost) is used instead, clamped to estMax only —
// the fallback is the operator's configured fixed deadline and may
// legitimately sit below estMin.
func (e *latencyEstimator) deadline(s int, fallback time.Duration) time.Duration {
	st := e.at(s)
	if st.n < estWarmup {
		if d := min(time.Duration(float64(fallback)*st.boost), estMax); d > 0 {
			return d
		}
		return estMin
	}
	// estHopBudget multiplies the expected per-hop latency; the
	// estK·stddev jitter margin is added once on top, NOT per hop —
	// multiplying the variance term too would compound two safety factors
	// and inflate deadlines ~estK-fold on jittery fabrics.
	perRing := estHopBudget*st.mean + estK*math.Sqrt(st.variance)
	d := max(time.Duration(perRing*float64(time.Second)), estMin)
	// The spurious-regeneration penalty multiplies the clamped estimate:
	// on a quiet fabric the EWMA term sits far below estMin, and a boost
	// folded in before the floor would be swallowed by it — leaving the
	// penalty inert exactly when it is the only feedback available.
	return min(time.Duration(float64(d)*st.boost), estMax)
}
