package migration

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEffectiveBandwidth(t *testing.T) {
	if got := EffectiveBandwidthMbps(0); got != 1000 {
		t.Fatalf("idle bandwidth = %v, want 1000", got)
	}
	if got := EffectiveBandwidthMbps(1); got != 140 {
		t.Fatalf("saturated bandwidth = %v, want floor 140", got)
	}
	if got := EffectiveBandwidthMbps(-3); got != 1000 {
		t.Fatalf("negative load clamped: %v", got)
	}
	if got := EffectiveBandwidthMbps(7); got != 140 {
		t.Fatalf("overload clamped: %v", got)
	}
}

// TestPaperEnvelopeIdle: with the calibrated defaults, an idle-network
// migration lands near the paper's 2.94 s total, ~127 MB moved, ~10 ms
// downtime.
func TestPaperEnvelopeIdle(t *testing.T) {
	res := Migrate(Workload{WorkingSetMB: 120, DirtyMBps: 3}, 0)
	if res.TotalS < 2.5 || res.TotalS > 3.5 {
		t.Fatalf("idle migration time = %.2fs, want ≈2.94s", res.TotalS)
	}
	if res.MigratedMB < 110 || res.MigratedMB > 150 {
		t.Fatalf("migrated bytes = %.1fMB, want ≈127MB (<150)", res.MigratedMB)
	}
	if res.DowntimeMS > 50 {
		t.Fatalf("idle downtime = %.1fms, want well under 50ms", res.DowntimeMS)
	}
}

// TestPaperEnvelopeSaturated: at 100% background load total time grows
// sub-linearly to ≈9.3 s and downtime stays below 50 ms (Fig. 5c/d).
func TestPaperEnvelopeSaturated(t *testing.T) {
	res := Migrate(Workload{WorkingSetMB: 120, DirtyMBps: 3}, 1)
	if res.TotalS < 7 || res.TotalS > 12 {
		t.Fatalf("saturated migration time = %.2fs, want ≈9.34s", res.TotalS)
	}
	if res.DowntimeMS > 50 {
		t.Fatalf("saturated downtime = %.1fms, want <50ms (paper: ≈40ms max)", res.DowntimeMS)
	}
	idle := Migrate(Workload{WorkingSetMB: 120, DirtyMBps: 3}, 0)
	if res.TotalS <= idle.TotalS {
		t.Fatal("background load must increase migration time")
	}
	if res.DowntimeMS <= idle.DowntimeMS {
		t.Fatal("background load must increase downtime")
	}
}

// TestMonotoneInLoad: total time is non-decreasing in background load,
// and averaged downtime trends upward — the shape of Fig. 5c/d. Pointwise
// downtime may dip when a slower link triggers one extra pre-copy round
// (a real pre-copy discretization effect), so downtime is checked on
// workload-averaged means.
func TestMonotoneInLoad(t *testing.T) {
	w := Workload{WorkingSetMB: 120, DirtyMBps: 3}
	prev := Migrate(w, 0)
	for load := 0.1; load <= 1.0001; load += 0.1 {
		cur := Migrate(w, load)
		if cur.TotalS+1e-9 < prev.TotalS {
			t.Fatalf("time decreased at load %.1f: %v -> %v", load, prev.TotalS, cur.TotalS)
		}
		prev = cur
	}
	// Averaged downtime across the workload distribution grows with load.
	rng := rand.New(rand.NewSource(23))
	meanDown := func(load float64) float64 {
		var sum float64
		const n = 300
		for i := 0; i < n; i++ {
			sum += Migrate(Draw(rng), load).DowntimeMS
		}
		return sum / n
	}
	lo, mid, hi := meanDown(0), meanDown(0.5), meanDown(1)
	if !(lo < hi) || !(mid < hi*1.2) {
		t.Fatalf("mean downtime trend broken: %.2f / %.2f / %.2f ms", lo, mid, hi)
	}
	if hi < 2*lo {
		t.Fatalf("saturated mean downtime %.2fms not clearly above idle %.2fms", hi, lo)
	}
}

func TestZeroWorkingSet(t *testing.T) {
	res := Migrate(Workload{WorkingSetMB: 0, DirtyMBps: 5}, 0)
	if res.MigratedMB != 0 || res.Rounds != 0 {
		t.Fatalf("empty VM moved %v MB in %d rounds", res.MigratedMB, res.Rounds)
	}
	if res.TotalS != SetupS {
		t.Fatalf("empty VM time = %v, want setup %v", res.TotalS, SetupS)
	}
}

// TestHighDirtyRateTerminates: when dirty rate outruns bandwidth the
// model must still terminate with bounded rounds.
func TestHighDirtyRateTerminates(t *testing.T) {
	res := Migrate(Workload{WorkingSetMB: 150, DirtyMBps: 500}, 1)
	if res.Rounds > MaxRounds {
		t.Fatalf("rounds = %d exceeds cap %d", res.Rounds, MaxRounds)
	}
	if res.TotalS <= 0 || res.MigratedMB < 150 {
		t.Fatalf("implausible result: %+v", res)
	}
}

// TestInvariantsQuick: for arbitrary workloads and loads the result is
// finite, bytes ≥ working set, downtime positive, rounds ≤ cap.
func TestInvariantsQuick(t *testing.T) {
	f := func(wsRaw, dirtyRaw, loadRaw uint16) bool {
		w := Workload{
			WorkingSetMB: 1 + float64(wsRaw%300),
			DirtyMBps:    float64(dirtyRaw%100) / 4,
		}
		load := float64(loadRaw%100) / 100
		res := Migrate(w, load)
		if res.Rounds < 1 || res.Rounds > MaxRounds {
			return false
		}
		if res.MigratedMB < w.WorkingSetMB {
			return false
		}
		if res.TotalS < SetupS || res.DowntimeMS < CPUStateMS {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadDistEnvelope: samples stay within the clip bounds and the
// resulting migrated-bytes distribution matches Fig. 5b's envelope.
func TestWorkloadDistEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sum, sumSq float64
	n := 500
	for i := 0; i < n; i++ {
		w := Draw(rng)
		if w.WorkingSetMB < 1 || w.WorkingSetMB > MaxWorkingSetMB {
			t.Fatalf("working set %v outside (0, %v]", w.WorkingSetMB, MaxWorkingSetMB)
		}
		if w.DirtyMBps < DirtyMinMBps || w.DirtyMBps > DirtyMaxMBps {
			t.Fatalf("dirty rate %v outside bounds", w.DirtyMBps)
		}
		res := Migrate(w, rng.Float64()*0.3)
		if res.MigratedMB > 170 {
			t.Fatalf("migrated %v MB, paper envelope is <150MB-ish", res.MigratedMB)
		}
		sum += res.MigratedMB
		sumSq += res.MigratedMB * res.MigratedMB
	}
	mean := sum / float64(n)
	if mean < 115 || mean > 140 {
		t.Fatalf("mean migrated bytes = %.1f, want ≈127 (Fig. 5b)", mean)
	}
}
