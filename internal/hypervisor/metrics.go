package hypervisor

import (
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/shard"
)

// PlaneMetrics instruments the distributed agent plane. It embeds
// shard.Metrics so both planes account rounds, migrations and cross-shard
// traffic into the same registry families, and adds the fault-tolerance
// series only the distributed plane produces. A nil *PlaneMetrics disables
// every record site.
type PlaneMetrics struct {
	*shard.Metrics
	// Acks counts accepted per-visit ring acks; Regens token
	// re-injections after missed shard deadlines; Spurious regenerations
	// later witnessed unnecessary; Evictions hosts removed from rings as
	// unresponsive.
	Acks      *obs.Counter
	Regens    *obs.Counter
	Spurious  *obs.Counter
	Evictions *obs.Counter
	// Deadline is each shard's current progress deadline (adaptive or
	// fixed), sampled at every deadline check.
	Deadline *obs.GaugeVec
	// HopLatency and HopStddev are the adaptive-deadline estimator's
	// per-shard EWMA mean and stddev of per-hop progress latency, in
	// seconds.
	HopLatency *obs.GaugeVec
	HopStddev  *obs.GaugeVec
	// Transport is registered alongside so the transport families are
	// always exposed, even on planes running over the in-memory hub.
	Transport *TransportMetrics
}

// NewPlaneMetrics registers (or re-binds) the distributed plane's families
// on reg.
func NewPlaneMetrics(reg *obs.Registry) *PlaneMetrics {
	return &PlaneMetrics{
		Metrics:    shard.NewMetrics(reg),
		Acks:       reg.Counter("score_ring_acks_total", "Accepted per-visit ring acks."),
		Regens:     reg.Counter("score_ring_regens_total", "Token regenerations after missed shard deadlines."),
		Spurious:   reg.Counter("score_spurious_regens_total", "Regenerations later witnessed unnecessary (stale-attempt reports)."),
		Evictions:  reg.Counter("score_evictions_total", "Hosts evicted from rings as unresponsive."),
		Deadline:   reg.GaugeVec("score_shard_deadline_seconds", "Current per-shard progress deadline.", "shard"),
		HopLatency: reg.GaugeVec("score_control_hop_latency_seconds", "Per-shard EWMA of per-hop ack latency.", "shard"),
		HopStddev:  reg.GaugeVec("score_control_hop_stddev_seconds", "Per-shard stddev of per-hop ack latency.", "shard"),
		Transport:  NewTransportMetrics(reg),
	}
}

// TransportMetrics instruments the TCP transport's send path. Wire it via
// TCPConfig.Metrics; the counters mirror TCPStats.
type TransportMetrics struct {
	Sends          *obs.Counter
	Dials          *obs.Counter
	Reused         *obs.Counter
	HeartbeatFails *obs.Counter
}

// NewTransportMetrics registers (or re-binds) the transport families on reg.
func NewTransportMetrics(reg *obs.Registry) *TransportMetrics {
	return &TransportMetrics{
		Sends:          reg.Counter("score_transport_sends_total", "Frames written by the transport."),
		Dials:          reg.Counter("score_transport_dials_total", "TCP connections dialed."),
		Reused:         reg.Counter("score_transport_reused_total", "Sends that rode a pooled connection."),
		HeartbeatFails: reg.Counter("score_transport_heartbeat_failures_total", "Parked connections that failed their pre-send heartbeat."),
	}
}
