package obs

import (
	"io"
	"math"
	"strconv"
	"testing"
	"time"
)

// The obs-overhead benchmarks gate instrumentation cost in CI's bench smoke:
// a regression here means every instrumented hot path got slower.

func BenchmarkObsCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("score_bench_total", "c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsGaugeSet(b *testing.B) {
	r := NewRegistry()
	g := r.Gauge("score_bench_gauge", "g")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("score_bench_seconds", "h", DefLatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-4)
	}
}

func BenchmarkObsTraceRecord(b *testing.B) {
	tr := NewTracer(1 << 14)
	e := Event{Kind: EvTokenVisit, T: 1, Round: 3, Shard: 2, Arg: 9, Attempt: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(e)
	}
}

func BenchmarkObsAuditAppend(b *testing.B) {
	ar := NewAuditRing(1 << 14)
	rec := AuditRecord{
		T: 1, StagedBits: 0x3fb999999999999a, FinalBits: 0x3fb999999999999a,
		VM: 7, Round: 3, Attempt: 1, Hop: 4, From: 2, To: 9, Shard: 1,
		Verdict: VerdictMerged,
	}
	b.ReportAllocs()
	b.ResetTimer() // the ring's storage is not the append's
	for i := 0; i < b.N; i++ {
		ar.Append(rec)
	}
}

// BenchmarkObsAuditSelect is one filtered audit query against a full
// ring of the daemon's size: it allocates for the matches, not the ring.
// A query by VM scans the ring; a query by round, which is what a round's
// caller asks, binary-searches it and copies that round's 256 records.
func BenchmarkObsAuditSelect(b *testing.B) {
	ar := NewAuditRing(1 << 14)
	for i := 0; i < 1<<15; i++ {
		ar.Append(AuditRecord{VM: uint32(i % 512), Round: uint32(i / 256), Verdict: VerdictMerged})
	}
	b.Run("vm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ar.Select(int64(i%512), -1)
		}
	})
	b.Run("round", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ar.Select(-1, int64(64+i%64)) // the retained rounds
		}
	})
}

// auditRound is one round's records as a daemon round writes them: one
// round and timestamp, hosts and ΔC values that vary record to record.
func auditRound(n int) []AuditRecord {
	recs := make([]AuditRecord, n)
	for i := range recs {
		staged := -float64(i%97+1) * 0.37
		final := staged
		verdict := VerdictMerged
		if i%11 == 0 {
			final, verdict = staged/3, VerdictStale
		}
		recs[i] = AuditRecord{
			T: 1_760_000_000_000_000_000, Seq: uint64(1_000_000 + i),
			StagedBits: math.Float64bits(staged), FinalBits: math.Float64bits(final),
			VM: uint32(i * 79 % 30720), Round: 41, Hop: -1, From: int32(i % 1024), To: int32(i * 7 % 1024),
			Shard: int16(i % 118), Verdict: verdict,
		}
	}
	return recs
}

// BenchmarkAuditJSON encodes one round's audit records, about what a
// round of the k=16 daemon writes, as GET /v1/audit?round= does: 0
// allocs/op once warm (TestRecordPathsAllocFree is the hard gate).
func BenchmarkAuditJSON(b *testing.B) {
	recs := auditRound(400)
	WriteAuditJSON(io.Discard, recs) // warm the recycled buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WriteAuditJSON(io.Discard, recs)
	}
}

func BenchmarkObsHTTPObserve(b *testing.B) {
	r := NewRegistry()
	hm := NewHTTPMetrics(r)
	ri := hm.route("/v1/bench")
	start := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ri.inflight.Add(1)
		ri.Observe(start)
	}
}

func BenchmarkObsExposition(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 8; i++ {
		h := r.Histogram("score_bench_expo_seconds", "h", DefLatencyBuckets)
		h.Observe(float64(i))
	}
	v := r.GaugeVec("score_bench_expo_gauge", "v", "shard")
	for i := 0; i < 16; i++ {
		v.With(strconv.Itoa(i)).Set(float64(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.WritePrometheus(io.Discard)
	}
}
