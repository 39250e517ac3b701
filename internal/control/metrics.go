package control

import (
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/traffic"
)

// Metrics instruments the adaptive control plane: the planner's adopted
// recommendation and the hotspot summary's locality decomposition. A nil
// *Metrics disables every record site.
type Metrics struct {
	// Shards and Granularity mirror the adopted recommendation
	// (granularity: 0 = by-pod, 1 = by-rack); PlanChanges counts
	// adoptions of a new plan after hysteresis.
	Shards      *obs.Gauge
	Granularity *obs.Gauge
	PlanChanges *obs.Counter
	// TotalRate and the locality shares mirror the hotspot summary.
	TotalRate *obs.Gauge
	IntraRack *obs.Gauge
	IntraPod  *obs.Gauge
	CrossPod  *obs.Gauge
}

// NewMetrics registers (or re-binds) the control-plane families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Shards:      reg.Gauge("score_control_shards", "Shard count of the adopted recommendation."),
		Granularity: reg.Gauge("score_control_granularity", "Adopted shard granularity (0 = by-pod, 1 = by-rack)."),
		PlanChanges: reg.Counter("score_control_plan_changes_total", "Recommendation adoptions after hysteresis."),
		TotalRate:   reg.Gauge("score_control_total_rate", "Total traffic rate in the hotspot summary."),
		IntraRack:   reg.Gauge("score_control_intra_rack_share", "Share of traffic staying within one rack."),
		IntraPod:    reg.Gauge("score_control_intra_pod_share", "Share of traffic crossing racks within one pod."),
		CrossPod:    reg.Gauge("score_control_cross_pod_share", "Share of traffic crossing pods."),
	}
}

// CostGauge returns the communication-cost gauge family shared by the
// batch Runner (internal/sim) and the resident service (internal/serve):
// both report into the same series name, so dashboards don't fork on
// deployment mode — and it lives here, in a package both already import,
// so the daemon does not link the simulator for a metric helper. The
// registry's get-or-create semantics make repeated calls return the same
// gauge.
func CostGauge(reg *obs.Registry) *obs.Gauge {
	return reg.Gauge("score_communication_cost", "Global communication cost C^A (Eq. 2) at the latest sample.")
}

// TrafficSampler registers (or finds) the score_traffic_* storage
// families and returns the function that mirrors a traffic matrix's
// storage accounting into them — shared, like CostGauge, by the batch
// Runner and the resident service, whose matrix spills and compacts
// inside observe ops. (The pair count is not among them: the service
// already exports it per op as score_service_pairs.) Each call records
// the current footprint, promotes the matrix's cumulative compaction count
// into the counter, and returns how many passes ran since the previous
// call. Matrix.Stats walks the overflow rows, so sample at round and
// snapshot granularity, not per op; the function is not safe for
// concurrent use.
func TrafficSampler(reg *obs.Registry) func(tm *traffic.Matrix) (compacted uint64) {
	bytes := reg.Gauge("score_traffic_bytes", "Traffic-matrix adjacency storage footprint.")
	overflow := reg.Gauge("score_traffic_overflow_rows", "Matrix rows living in the arena overflow region.")
	compactions := reg.Counter("score_traffic_compactions_total", "Arena compaction passes performed.")
	var seen uint64 // matrix compaction count at the last sample
	return func(tm *traffic.Matrix) (compacted uint64) {
		st := tm.Stats()
		bytes.Set(float64(st.Bytes))
		overflow.Set(float64(st.OverflowRows))
		if st.Compactions > seen {
			compacted = st.Compactions - seen
			compactions.Add(compacted)
			seen = st.Compactions
		}
		return compacted
	}
}
