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
}

// NewPlaneMetrics registers (or re-binds) the distributed plane's families
// on reg.
func NewPlaneMetrics(reg *obs.Registry) *PlaneMetrics {
	return &PlaneMetrics{
		Metrics:   shard.NewMetrics(reg),
		Acks:      reg.Counter("score_ring_acks_total", "Accepted per-visit ring acks."),
		Regens:    reg.Counter("score_ring_regens_total", "Token regenerations after missed shard deadlines."),
		Spurious:  reg.Counter("score_spurious_regens_total", "Regenerations later witnessed unnecessary (stale-attempt reports)."),
		Evictions: reg.Counter("score_evictions_total", "Hosts evicted from rings as unresponsive."),
	}
}
