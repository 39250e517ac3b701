package obs

import (
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("score_test_total", "a counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	g := r.Gauge("score_test_gauge", "a gauge")
	g.Set(1.5)
	g.Add(-0.5)
	if got := g.Value(); got != 1.0 {
		t.Fatalf("gauge = %v, want 1", got)
	}
}

func TestGetOrCreateSharesMetric(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("score_shared_total", "first")
	b := r.Counter("score_shared_total", "second registration, same family")
	if a != b {
		t.Fatal("same name should return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("shared counter must observe writes from either handle")
	}
	h1 := r.Histogram("score_shared_seconds", "h", DefLatencyBuckets)
	h2 := r.Histogram("score_shared_seconds", "h", nil) // nil defaults to DefLatencyBuckets
	if h1 != h2 {
		t.Fatal("same histogram name+buckets should share")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("score_kind_total", "c")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("score_kind_total", "g")
}

func TestBucketMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("score_bm_seconds", "h", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bucket mismatch")
		}
	}()
	r.Histogram("score_bm_seconds", "h", []float64{1, 2, 3})
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid name")
		}
	}()
	r.Counter("score-bad-name", "dashes are not allowed")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("score_h_seconds", "h", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	// Bucket placement: le=0.01 gets {0.005, 0.01}, le=0.1 gets {0.05},
	// le=1 gets {0.5}, +Inf gets {2}.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-2.565) > 1e-9 {
		t.Fatalf("sum = %v, want 2.565", h.Sum())
	}
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("score_vec_gauge", "per shard", "shard")
	v.With("0").Set(1)
	v.With("3").Set(4)
	if v.With("0") == v.With("3") {
		t.Fatal("two label values share a child")
	}
	if v.With("3").Value() != 4 {
		t.Fatal("With(\"3\") lost its value")
	}
	cv := r.CounterVec("score_vec_total", "per shard", "shard")
	cv.With("1").Add(7)
	if cv.With("1").Value() != 7 {
		t.Fatal("counter vec child mismatch")
	}
}

// TestConcurrentRecording hammers every record path from GOMAXPROCS
// goroutines; run under -race this proves the paths are data-race free,
// and the final values prove no updates are lost.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("score_cc_total", "c")
	g := r.Gauge("score_cc_gauge", "g")
	h := r.Histogram("score_cc_seconds", "h", DefLatencyBuckets)
	v := r.CounterVec("score_cc_vec_total", "v", "shard")
	gv := r.GaugeVec("score_cc_vec_gauge", "gv", "shard")

	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%16) * 1e-3)
				v.With(strconv.Itoa(w % 8)).Inc()
				gv.With(strconv.Itoa(w % 8)).Set(float64(i))
			}
		}(w)
	}
	// Concurrent scrapes must not block or race with the writers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	total := uint64(workers * perWorker)
	if c.Value() != total {
		t.Fatalf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != float64(total) {
		t.Fatalf("gauge = %v, want %d", g.Value(), total)
	}
	if h.Count() != total {
		t.Fatalf("histogram count = %d, want %d", h.Count(), total)
	}
	var vecSum uint64
	for i := 0; i < 8; i++ {
		vecSum += v.With(strconv.Itoa(i)).Value()
	}
	if vecSum != total {
		t.Fatalf("vec sum = %d, want %d", vecSum, total)
	}
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestRecordPathsAllocFree proves the hot-path record calls perform zero
// allocations, which is what lets instrumentation stay on in the gated
// benchmarks.
func TestRecordPathsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("score_alloc_total", "c")
	g := r.Gauge("score_alloc_gauge", "g")
	h := r.Histogram("score_alloc_seconds", "h", DefLatencyBuckets)
	tr := NewTracer(1 << 10)
	ar := NewAuditRing(1 << 10)
	round := auditRound(400)
	for _, r := range round {
		ar.Append(r)
	}

	type allocCase struct {
		name string
		fn   func()
	}
	cases := []allocCase{
		{"counter_inc", func() { c.Inc() }},
		{"counter_add", func() { c.Add(3) }},
		{"gauge_set", func() { g.Set(1.23) }},
		{"gauge_add", func() { g.Add(-0.5) }},
		{"histogram_observe", func() { h.Observe(0.042) }},
		{"tracer_record", func() {
			tr.Record(Event{Kind: EvTokenVisit, T: 1, Round: 1, Shard: 2, Arg: 7})
		}},
	}
	if !raceEnabled {
		cases = append(cases, allocCase{"audit_json", func() { WriteAuditJSON(io.Discard, round) }})
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
	// A query by round allocates its result and nothing else.
	if n := testing.AllocsPerRun(100, func() { ar.Select(-1, 41) }); n != 1 {
		t.Errorf("audit_select_round: %v allocs/op, want 1", n)
	}
}
