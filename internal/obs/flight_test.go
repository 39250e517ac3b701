package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// newTestRecorder builds a recorder writing under a fresh directory, with
// a populated trace and audit ring.
//
// Every capture samples a CPU profile for flightCPUProfile. The tests
// that capture more than once run in parallel so those sleeps overlap; a
// capture that finds another's profile running leaves cpu.pprof out of
// its bundle, as it would in production.
func newTestRecorder(t *testing.T) (*FlightRecorder, *Registry) {
	t.Helper()
	reg := NewRegistry()
	tr := NewTracer(64)
	tr.Record(Event{Kind: EvRoundStart, Round: 1, Shard: -1})
	tr.Record(Event{Kind: EvRingDone, Round: 1, Shard: 0, Arg: 5})
	ar := NewAuditRing(64)
	ar.Append(auditRec(7, 1, VerdictMerged, -2.5, -2.5))
	fr, err := NewFlightRecorder(t.TempDir(), nil, reg, tr, ar)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fr.Close)
	return fr, reg
}

// pastMinGap moves the previous capture back by flightMinGap, so the
// next automatic trigger is not rate-limited.
func pastMinGap(fr *FlightRecorder) {
	fr.mu.Lock()
	fr.last = fr.last.Add(-flightMinGap)
	fr.mu.Unlock()
}

func readMeta(t *testing.T, dir string) flightMeta {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var meta flightMeta
	if err := json.Unmarshal(b, &meta); err != nil {
		t.Fatal(err)
	}
	return meta
}

// TestFlightForceBundle captures a manual bundle and decodes every JSON
// artifact back: the bundle must be interpretable without the process
// that wrote it.
func TestFlightForceBundle(t *testing.T) {
	fr, _ := newTestRecorder(t)
	dir, err := fr.Force("manual")
	if err != nil {
		t.Fatal(err)
	}
	if dir == "" {
		t.Fatal("Force returned an empty bundle path")
	}

	meta := readMeta(t, dir)
	if meta.Reason != "manual" || !meta.Manual || meta.TNS == 0 {
		t.Fatalf("meta = %+v", meta)
	}
	for _, want := range []string{"metrics.prom", "trace.json", "audit.json", "heap.pprof", "cpu.pprof", "meta.json"} {
		found := false
		for _, f := range meta.Files {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("meta.Files %v missing %s", meta.Files, want)
		}
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Fatalf("bundle file %s: %v", want, err)
		}
	}

	var events []TraceJSONEvent
	b, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("trace.json decoded %d events, want 2", len(events))
	}

	var recs []AuditJSONRecord
	b, err = os.ReadFile(filepath.Join(dir, "audit.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &recs); err != nil {
		t.Fatal(err)
	}
	rec := recs[0].Record()
	if len(recs) != 1 || rec.StagedDelta() != -2.5 {
		t.Fatalf("audit.json decoded %+v", recs)
	}

	prom, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "score_flight_captures_total") {
		t.Fatal("metrics.prom lacks the recorder's own counters")
	}
}

// TestFlightRateLimitAndForceBypass: an automatic trigger inside
// flightMinGap is counted as skipped, while Force ignores the gap
// entirely.
func TestFlightRateLimitAndForceBypass(t *testing.T) {
	t.Parallel()
	fr, reg := newTestRecorder(t)
	if _, err := fr.capture("first", false); err != nil {
		t.Fatal(err)
	}
	dir, err := fr.capture("second", false)
	if err != nil {
		t.Fatal(err)
	}
	if dir != "" {
		t.Fatalf("rate-limited capture still wrote %s", dir)
	}
	if got := fr.skipped.Value(); got != 1 {
		t.Fatalf("skipped counter = %d, want 1", got)
	}
	if got := fr.captures.Value(); got != 1 {
		t.Fatalf("captures counter = %d, want 1", got)
	}
	if dir, err = fr.Force("urgent"); err != nil || dir == "" {
		t.Fatalf("Force inside the gap: dir=%q err=%v", dir, err)
	}
	if got := fr.captures.Value(); got != 2 {
		t.Fatalf("captures counter after Force = %d, want 2", got)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "score_flight_skipped_total 1") {
		t.Fatalf("exposition lacks skipped counter:\n%s", sb.String())
	}
}

// TestFlightPruneBound: the bundle directory never holds more than
// flightMaxBundles bundles; the oldest is evicted first. The directory
// starts full of bundles from an earlier run, named as capture names
// them but older than any capture now.
func TestFlightPruneBound(t *testing.T) {
	t.Parallel()
	fr, _ := newTestRecorder(t)
	var old []string
	for i := 0; i < flightMaxBundles; i++ {
		name := fmt.Sprintf("flight-20000101T000000.%09d-old", i)
		if err := os.Mkdir(filepath.Join(fr.dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
		old = append(old, name)
	}
	var fresh []string
	for i := 0; i < 2; i++ {
		p, err := fr.Force("spin")
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, filepath.Base(p))
		// Bundle names carry nanosecond timestamps; consecutive captures
		// in a tight loop still order correctly, but give the clock a
		// nudge for filesystems with coarse directory listings.
		time.Sleep(time.Millisecond)
	}
	ents, err := os.ReadDir(fr.dir)
	if err != nil {
		t.Fatal(err)
	}
	var bundles []string
	for _, e := range ents {
		if e.IsDir() {
			bundles = append(bundles, e.Name())
		}
	}
	if want := append(old[2:], fresh...); !slices.Equal(bundles, want) {
		t.Fatalf("retained %v, want %v", bundles, want)
	}
}

// TestFlightRulesFire drives each watcher rule through its trigger
// condition via pollOnce, moving each capture back past the rate limit so
// every fire captures.
func TestFlightRulesFire(t *testing.T) {
	t.Parallel()
	fr, reg := newTestRecorder(t)

	c := reg.Counter("test_backpressure_total", "t")
	fr.WatchCounterIncrease("backpressure", c)
	fr.pollOnce()
	if got := fr.captures.Value(); got != 0 {
		t.Fatalf("counter rule fired with no increase (captures=%d)", got)
	}
	c.Inc()
	fr.pollOnce()
	if got := fr.captures.Value(); got != 1 {
		t.Fatalf("counter rule did not fire on increase (captures=%d)", got)
	}

	g := reg.Gauge("test_cost", "t")
	g.Set(100)
	fr.WatchGaugeIncrease("cost_increase", g, 1e-9)
	g.Set(99) // decreases never fire
	fr.pollOnce()
	if got := fr.captures.Value(); got != 1 {
		t.Fatalf("gauge rule fired on decrease (captures=%d)", got)
	}
	g.Set(105)
	pastMinGap(fr)
	fr.pollOnce()
	if got := fr.captures.Value(); got != 2 {
		t.Fatalf("gauge rule did not fire on increase (captures=%d)", got)
	}

	h := reg.Histogram("test_latency_seconds", "t", nil)
	fr.WatchHistogramEWMA("round_latency", h, 3, 2)
	for i := 0; i < 3; i++ { // warmup windows at ~10ms mean
		h.Observe(0.010)
		fr.pollOnce()
	}
	if got := fr.captures.Value(); got != 2 {
		t.Fatalf("EWMA rule fired during warmup (captures=%d)", got)
	}
	h.Observe(1.0) // 100x the EWMA: anomaly
	pastMinGap(fr)
	fr.pollOnce()
	if got := fr.captures.Value(); got != 3 {
		t.Fatalf("EWMA rule did not fire on a 100x window (captures=%d)", got)
	}
}

// TestFlightCloseWithoutStart must not hang: Close unblocks the done
// channel even when the watcher goroutine never launched.
func TestFlightCloseWithoutStart(t *testing.T) {
	fr, _ := newTestRecorder(t)
	done := make(chan struct{})
	go func() { fr.Close(); fr.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close without Start hung")
	}
}

// TestFlightStartStop exercises the watcher goroutine end to end on a
// fast poll: a counter bump is noticed and captured without Force.
func TestFlightStartStop(t *testing.T) {
	t.Parallel()
	fr, reg := newTestRecorder(t)
	c := reg.Counter("test_trips_total", "t")
	fr.WatchCounterIncrease("trips", c)
	fr.start(5 * time.Millisecond)
	c.Inc()
	deadline := time.Now().Add(2 * time.Second)
	for fr.captures.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	fr.Close()
	if got := fr.captures.Value(); got == 0 {
		t.Fatal("watcher goroutine never captured the counter trip")
	}
}
