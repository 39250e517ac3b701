// Package migration models Xen-style pre-copy live migration, replacing
// the paper's physical testbed (Section VI-C).
//
// Pre-copy live migration [8] iteratively transfers the VM's memory while
// it keeps running: round 0 copies the resident working set; each later
// round copies the pages dirtied during the previous round; when the
// remaining dirty set is small enough (or a round cap is hit), the VM is
// suspended and the residue plus CPU state move in the stop-and-copy
// phase — the only interval the VM is down.
//
// The model is calibrated to the paper's measured envelope on 1 Gb/s
// links: ~127 MB ± 11 MB migrated per VM (Fig. 5b), total migration time
// growing sub-linearly from 2.94 s with an idle network to 9.34 s at full
// background load (Fig. 5c), and downtime staying below ~50 ms even at
// 100% background load (Fig. 5d).
package migration

import "math/rand"

// The Fig. 5 calibration: the paper evaluates one testbed, so the model
// has no settings. Every value but MaxRounds is a floating-point constant,
// so a variable read from one is a float64.
const (
	// LinkMbps is the migration path's NIC speed (paper testbed: 1 Gb/s).
	LinkMbps = 1000.0
	// MinShareFrac is the smallest fraction of the link the migration
	// TCP stream retains when background traffic saturates the link; a
	// CBR blast cannot fully starve a backlogged TCP flow.
	MinShareFrac = 0.14
	// StopCopyThresholdMB suspends the VM once the dirty residue falls
	// below this size.
	StopCopyThresholdMB = 0.5
	// MaxRounds caps pre-copy iterations (Xen defaults to ~30) so
	// migration terminates even when the dirty rate outruns bandwidth.
	MaxRounds = 30
	// SetupS is the fixed control overhead: connection handshake,
	// shadow page-table setup, and per-round scan costs folded into one
	// constant (dominates the 2.94 s idle-network total).
	SetupS = 1.9
	// CPUStateMS is the fixed stop-and-copy cost of moving vCPU and
	// device state.
	CPUStateMS = 5.0
)

// The testbed guests' workload, reproducing the spread of Fig. 5b ("flat
// and wide due to the highly varying memory dirty rate"): 196 MB
// allocated, ~120 MB resident, idle-to-moderate dirty rates.
const (
	// WorkingSetMeanMB and WorkingSetStdMB parameterize a truncated
	// normal for the resident set.
	WorkingSetMeanMB = 120.0
	WorkingSetStdMB  = 10.0
	// MaxWorkingSetMB clips the resident set (a 196 MB guest cannot
	// migrate more than its allocation).
	MaxWorkingSetMB = 196.0
	// DirtyMinMBps and DirtyMaxMBps bound a uniform dirty-rate draw.
	DirtyMinMBps = 0.5
	DirtyMaxMBps = 6.0
)

// Workload describes the migrating VM's memory behaviour.
type Workload struct {
	// WorkingSetMB is the resident memory actually transferred in round
	// 0 (the paper's 196 MB guests migrate ~127 MB on average: untouched
	// pages are skipped).
	WorkingSetMB float64
	// DirtyMBps is the page-dirty rate while the VM runs. The paper
	// notes "highly varying memory dirty rate at the time when a VM is
	// being migrated" as the source of the Fig. 5b spread.
	DirtyMBps float64
}

// Result summarizes one modeled migration.
type Result struct {
	// MigratedMB is the total bytes moved across all rounds plus
	// stop-and-copy — the Fig. 5b metric and the basis of migration-cost
	// models (Remedy estimates "the number of migrated bytes as a
	// function of page dirty rate").
	MigratedMB float64
	// TotalS is the end-to-end migration time (Fig. 5c).
	TotalS float64
	// DowntimeMS is the stop-and-copy suspension (Fig. 5d).
	DowntimeMS float64
	// Rounds is the number of pre-copy iterations before suspension.
	Rounds int
	// BandwidthMbps is the effective transfer rate used.
	BandwidthMbps float64
}

// EffectiveBandwidthMbps returns the share of the link the migration
// stream achieves under a background load expressed as a fraction of
// link capacity in [0, 1].
func EffectiveBandwidthMbps(backgroundLoad float64) float64 {
	if backgroundLoad < 0 {
		backgroundLoad = 0
	}
	if backgroundLoad > 1 {
		backgroundLoad = 1
	}
	avail := LinkMbps * (1 - backgroundLoad)
	if floor := LinkMbps * MinShareFrac; avail < floor {
		return floor
	}
	return avail
}

// Migrate runs the pre-copy recurrence for one VM under the given
// background network load (fraction of link capacity).
func Migrate(w Workload, backgroundLoad float64) Result {
	bw := EffectiveBandwidthMbps(backgroundLoad) / 8 // MB/s
	res := Result{BandwidthMbps: bw * 8}
	if w.WorkingSetMB <= 0 {
		res.TotalS = SetupS
		res.DowntimeMS = CPUStateMS
		return res
	}
	remaining := w.WorkingSetMB
	var transferred, txTime float64
	for r := 0; r < MaxRounds && remaining > StopCopyThresholdMB; r++ {
		dt := remaining / bw
		transferred += remaining
		txTime += dt
		remaining = w.DirtyMBps * dt
		res.Rounds++
		// A dirty rate at or above bandwidth cannot converge; Xen bails
		// out to stop-and-copy once progress stalls.
		if w.DirtyMBps >= bw && r >= 2 {
			break
		}
	}
	// Stop-and-copy: suspend, push the residue and CPU state.
	stopS := remaining / bw
	transferred += remaining
	res.MigratedMB = transferred
	res.TotalS = SetupS + txTime + stopS
	res.DowntimeMS = stopS*1000 + CPUStateMS
	return res
}

// Draw samples one testbed workload.
func Draw(rng *rand.Rand) Workload {
	ws := WorkingSetMeanMB + WorkingSetStdMB*rng.NormFloat64()
	if ws < 1 {
		ws = 1
	}
	if ws > MaxWorkingSetMB {
		ws = MaxWorkingSetMB
	}
	dirty := DirtyMinMBps + rng.Float64()*(DirtyMaxMBps-DirtyMinMBps)
	return Workload{WorkingSetMB: ws, DirtyMBps: dirty}
}

// Sample draws one testbed workload and migrates it under background
// load bg (fraction of link capacity).
func Sample(rng *rand.Rand, bg float64) Result { return Migrate(Draw(rng), bg) }
