// Scale benchmarks: the 100×-instance axis of the recorded perf
// trajectory. Fat-tree instances at k=8/16/24/32 with 30 VMs per host
// (3,840 / 30,720 / 103,680 / 245,760 VMs) plus the half-million-VM
// point at k=40 with a denser 32-VMs-per-host packing (512,000 VMs)
// exercise the arena-backed CSR traffic matrix, the dense cluster
// records and the streaming scenario path end to end. Run ascending
// (k=8 first) so each sub-benchmark's peak-RSS probe — the process
// high-water mark — reflects its own instance:
//
//	go test -run '^$' -bench 'Round100k|SummaryFold100k' -benchmem -benchtime=1x
//
// cmd/scoreperf turns the output into BENCH_8.json and gates peak-RSS
// and round-latency regressions at the largest instance in CI.
package score_test

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/score-dc/score"
	"github.com/score-dc/score/internal/control"
	"github.com/score-dc/score/internal/experiments"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/shard"
)

// scalePoints are the recorded trajectory points; k=24 is the 100k-VM
// milestone (3456 hosts × 30 VMs), k=32 extends the series to 8192
// hosts × 30 VMs, and k=40 at a denser packing (16000 hosts × 32 VMs =
// 512,000 VMs) is the half-million-VM point.
var scalePoints = []struct {
	k          int
	vmsPerHost int
}{
	{8, 30}, {16, 30}, {24, 30}, {32, 30}, {40, 32},
}

const scaleVMsPerHost = 30

func scaleScenario(b *testing.B, k, vmsPerHost int) *experiments.Scenario {
	b.Helper()
	sc, err := experiments.NewFatTreeScenario(k, vmsPerHost, experiments.Sparse, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

// vmHWMMB reads the process peak resident set (VmHWM) in MiB; 0 when
// the probe is unavailable (non-Linux).
func vmHWMMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// reportMemory attaches the per-instance memory metrics: live heap
// after a forced GC (instance footprint, order-independent) and the
// process high-water mark (the CI regression gate's signal). live is
// what the instance consists of — scenario, coordinator, snapshot — kept
// reachable across the GC, which would otherwise collect it first and
// leave heap-mb measuring nothing.
func reportMemory(b *testing.B, live ...any) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(live)
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heap-mb")
	if rss := vmHWMMB(); rss > 0 {
		b.ReportMetric(rss, "peak-rss-mb")
	}
}

// BenchmarkRound100k: one full auto-tuned scheduling round (traffic
// summary sync, shard plan, concurrent token rings, merge) per
// iteration. The k=24 point is the acceptance milestone: ≥100k VMs
// load, generate and complete a round.
func BenchmarkRound100k(b *testing.B) {
	for _, pt := range scalePoints {
		b.Run(fmt.Sprintf("k=%d", pt.k), func(b *testing.B) {
			sc := scaleScenario(b, pt.k, pt.vmsPerHost)
			snap := sc.Cl.Snapshot()
			ctrl := control.New(sc.Topo, control.Config{})
			detach := ctrl.Bind(sc.TM, sc.Cl)
			defer detach()
			coord, err := score.NewShardCoordinator(sc.Eng, score.ShardConfig{
				Tuner:     ctrl,
				NewPolicy: func(int) score.TokenPolicy { return score.RoundRobin{} },
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(sc.Cl.NumVMs()), "vms")
			// One untimed warm-up round primes the coordinator's reusable
			// round scratch (per-shard views, tokens, partition rings), so
			// the timed iterations measure the steady-state round — the
			// cost every production round after the first pays.
			if _, err := coord.RunRound(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := sc.Cl.Restore(snap); err != nil {
					b.Fatal(err)
				}
				ctrl.Recommendation() // absorb the restore-triggered rebuild untimed
				b.StartTimer()
				if _, err := coord.RunRound(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportMemory(b, sc, snap, ctrl, coord)
		})
	}
}

// BenchmarkRound100kInstrumented is BenchmarkRound100k with the full
// observability plane attached — metrics registry, round tracer and
// decision-audit ring at their production defaults (scored's
// -audit-events default is 1<<14; a cache-resident ring keeps the ~65k
// appends of a k=24 round off main memory) — at the k=24 and k=32
// points. CI's bench-scale job compares its k=24 ns/op against the
// uninstrumented round: the always-on instrumentation budget is 2%.
func BenchmarkRound100kInstrumented(b *testing.B) {
	for _, pt := range scalePoints {
		if pt.k != 24 && pt.k != 32 {
			continue
		}
		b.Run(fmt.Sprintf("k=%d", pt.k), func(b *testing.B) {
			sc := scaleScenario(b, pt.k, pt.vmsPerHost)
			snap := sc.Cl.Snapshot()
			ctrl := control.New(sc.Topo, control.Config{})
			detach := ctrl.Bind(sc.TM, sc.Cl)
			defer detach()
			reg := obs.NewRegistry()
			coord, err := score.NewShardCoordinator(sc.Eng, score.ShardConfig{
				Tuner:     ctrl,
				NewPolicy: func(int) score.TokenPolicy { return score.RoundRobin{} },
				Metrics:   shard.NewMetrics(reg),
				Trace:     obs.NewTracer(1 << 14),
				Audit:     obs.NewAuditRing(1 << 14),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(sc.Cl.NumVMs()), "vms")
			if _, err := coord.RunRound(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := sc.Cl.Restore(snap); err != nil {
					b.Fatal(err)
				}
				ctrl.Recommendation()
				b.StartTimer()
				if _, err := coord.RunRound(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportMemory(b, sc, snap, ctrl, coord)
		})
	}
}

// BenchmarkSummaryFold100k: the adaptive control plane's steady-state
// fold at scale — 8 rate mutations pushed through the CSR changelog
// into the controller's pod-level summary, then a shard recommendation.
func BenchmarkSummaryFold100k(b *testing.B) {
	for _, pt := range scalePoints {
		b.Run(fmt.Sprintf("k=%d", pt.k), func(b *testing.B) {
			sc := scaleScenario(b, pt.k, pt.vmsPerHost)
			ctrl := control.New(sc.Topo, control.Config{})
			detach := ctrl.Bind(sc.TM, sc.Cl)
			defer detach()
			ctrl.Recommendation() // initial build outside the loop
			type mut struct {
				a, b score.VMID
				base float64
			}
			var muts []mut
			sc.TM.ForEachPair(func(a, bb score.VMID, rate float64) {
				muts = append(muts, mut{a: a, b: bb, base: rate})
			})
			if len(muts) < 8 {
				b.Fatal("fixture too sparse")
			}
			b.ReportMetric(float64(sc.Cl.NumVMs()), "vms")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 8; j++ {
					m := muts[(i*8+j)%len(muts)]
					sc.TM.Set(m.a, m.b, m.base*(1+0.001*float64(j)))
				}
				ctrl.Recommendation()
			}
			b.StopTimer()
			reportMemory(b, sc, ctrl, muts)
		})
	}
}

// nextSliceCap approximates the backing capacity append would have
// grown a small per-VM edge slice to: powers of two, the historical
// slice-row layout's per-row overhead.
func nextSliceCap(n int) int {
	c := 1
	for c < n {
		c *= 2
	}
	return c
}

// TestMatrixMemoryPerEdge: acceptance criterion — the CSR layout must
// carry the k=8 dense instance's matrix in ≤70% of the bytes the old
// map[VMID][]Edge slice-row layout needed (per-row slice headers + map
// buckets + power-of-two append slack vs one shared arena).
func TestMatrixMemoryPerEdge(t *testing.T) {
	sc, err := experiments.NewFatTreeScenario(8, scaleVMsPerHost, experiments.Dense, benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	st := sc.TM.Stats()
	if st.RowWindow == 0 {
		t.Fatal("k=8 instance has no row table")
	}
	if st.Pairs == 0 {
		t.Fatal("empty traffic matrix")
	}

	// Reconstruct what the slice-row layout would hold for the same
	// adjacency: per non-empty VM one []Edge grown by append (power-of-
	// two capacity) plus ~48 B of map-bucket overhead per key.
	const edgeBytes = 16
	const mapRowOverhead = 48
	degrees := map[score.VMID]int{}
	sc.TM.ForEachPair(func(a, b score.VMID, _ float64) {
		degrees[a]++
		degrees[b]++
	})
	var oldBytes int64
	for _, deg := range degrees {
		oldBytes += int64(nextSliceCap(deg))*edgeBytes + 24 /* slice header */ + mapRowOverhead
	}

	ratio := float64(st.Bytes) / float64(oldBytes)
	t.Logf("CSR bytes = %d, slice-row bytes = %d, ratio = %.3f (%d pairs, %d edges)",
		st.Bytes, oldBytes, ratio, st.Pairs, st.Edges)
	if ratio > 0.70 {
		t.Fatalf("matrix memory per edge reduced only %.1f%% vs slice-row layout, want ≥30%%",
			(1-ratio)*100)
	}
}

// TestRound100kCompletes is the non-benchmark form of the acceptance
// milestone, kept -short friendly: generate the k=24 fat-tree instance
// with ≥100k VMs via the streaming path and complete one auto-tuned
// scheduling round.
func TestRound100kCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-VM round in -short mode")
	}
	sc, err := experiments.NewFatTreeScenario(24, scaleVMsPerHost, experiments.Sparse, benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	if n := sc.Cl.NumVMs(); n < 100000 {
		t.Fatalf("k=24 instance has %d VMs, want ≥100000", n)
	}
	ctrl := control.New(sc.Topo, control.Config{})
	detach := ctrl.Bind(sc.TM, sc.Cl)
	defer detach()
	coord, err := score.NewShardCoordinator(sc.Eng, score.ShardConfig{
		Tuner:     ctrl,
		NewPolicy: func(int) score.TokenPolicy { return score.RoundRobin{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := coord.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("k=24 round: %d VMs, %d migrations applied", sc.Cl.NumVMs(), len(res.Applied))
}
