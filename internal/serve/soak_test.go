package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/score-dc/score/internal/cluster"
)

// observeHTTP sends one batch through the daemon's handler, encoded as
// a remote source would encode it, and maps the reply back to what
// Daemon.Observe returns.
func observeHTTP(h http.Handler, samples []RateSample) (applied, rejected int, err error) {
	body := appendObserveBody(nil, "writer", samples)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/observe", bytes.NewReader(body)))
	switch rec.Code {
	case http.StatusOK:
		var rep observeReply
		err = json.Unmarshal(rec.Body.Bytes(), &rep)
		return rep.Applied, rep.Rejected, err
	case http.StatusServiceUnavailable:
		return 0, 0, ErrBacklogged
	}
	return 0, 0, fmt.Errorf("POST /v1/observe: %d %s", rec.Code, rec.Body.String())
}

// TestIngestSoak streams samples and lifecycle ops from concurrent
// writers at a daemon running auto rounds, then checks the accounting
// invariants of the backpressure contract:
//
//   - every sample a 2xx reply claimed applied is in the daemon's
//     counters — nothing is dropped without a 503 (ErrBacklogged) —
//     whether the batch came in through Observe or, from every other
//     writer, as a POST /v1/observe body decoded into pooled scratch;
//   - the daemon's goroutines are gone after Close;
//   - once the workload stabilizes, the per-round cost trajectory is
//     monotonically non-increasing (Theorem 1: every applied move
//     strictly lowers C^A, and a quiet round leaves it unchanged).
//
// Run it under -race to get the concurrency check the harness exists
// for; -short trims the writer count and iteration budget.
func TestIngestSoak(t *testing.T) {
	writers, iters := 8, 150
	if testing.Short() {
		writers, iters = 4, 40
	}
	baseline := runtime.NumGoroutine()

	d, err := New(testConfig(func(cfg *Config) {
		cfg.RoundInterval = 2 * time.Millisecond
		cfg.IngestQueue = 64
		cfg.EnqueueTimeout = 2 * time.Millisecond
	}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	// A stable population all writers observe against. 16 hosts × 4
	// slots leave room for the writers' churn on top.
	stable := make([]cluster.VMID, 16)
	for i := range stable {
		id, _, err := d.Admit(AdmitRequest{RAMMB: 64})
		if err != nil {
			t.Fatalf("stable admit %d: %v", i, err)
		}
		stable[i] = id
	}

	h := d.Handler()
	var sentApplied, sentBatches, sentHTTP, dropped atomic.Uint64
	var admits, removes atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			base := cluster.VMID(10_000 * (w + 1))
			var live []cluster.VMID
			next := base
			for i := 0; i < iters; i++ {
				switch {
				case len(live) < 2 || (len(live) < 4 && rng.Intn(3) == 0):
					id := next
					next++
					if _, _, err := d.Admit(AdmitRequest{ID: id, HasID: true, RAMMB: 64}); err == ErrBacklogged {
						dropped.Add(1)
						continue
					} else if err != nil {
						t.Errorf("writer %d admit %d: %v", w, id, err)
						return
					}
					admits.Add(1)
					live = append(live, id)
				case rng.Intn(8) == 0:
					victim := live[rng.Intn(len(live))]
					if err := d.RemoveVM(victim); err == ErrBacklogged {
						dropped.Add(1)
						continue
					} else if err != nil {
						t.Errorf("writer %d remove %d: %v", w, victim, err)
						return
					}
					removes.Add(1)
					for j, id := range live {
						if id == victim {
							live = append(live[:j], live[j+1:]...)
							break
						}
					}
				default:
					// Batch of samples among this writer's VMs and the
					// stable set.
					n := 1 + rng.Intn(6)
					samples := make([]RateSample, 0, n)
					for s := 0; s < n; s++ {
						a := live[rng.Intn(len(live))]
						b := stable[rng.Intn(len(stable))]
						samples = append(samples, RateSample{A: a, B: b, RateMbps: 200 * rng.Float64()})
					}
					var applied, rejected int
					var err error
					if w%2 == 1 {
						sentHTTP.Add(1)
						applied, rejected, err = observeHTTP(h, samples)
					} else {
						applied, rejected, err = d.Observe("writer", samples)
					}
					if err == ErrBacklogged {
						dropped.Add(1)
						continue
					} else if err != nil {
						t.Errorf("writer %d observe: %v", w, err)
						return
					}
					if rejected != 0 {
						// Writers only reference their own live VMs and
						// the immortal stable set; nothing here races
						// with a removal.
						t.Errorf("writer %d: %d samples rejected", w, rejected)
						return
					}
					sentBatches.Add(1)
					sentApplied.Add(uint64(applied))
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Accounting: the daemon counted exactly what the writers were told
	// was applied — the "no dropped observations beyond the backpressure
	// contract" half of the soak.
	if got, want := d.m.ingestSamples.Value(), sentApplied.Load(); got != want {
		t.Fatalf("score_ingest_samples_total = %d, writers saw %d applied", got, want)
	}
	if got, want := d.m.ingestBatches.Value(), sentBatches.Load(); got != want {
		t.Fatalf("score_ingest_batches_total = %d, writers sent %d batches", got, want)
	}
	if got, want := d.m.admits.Value(), admits.Load()+uint64(len(stable)); got != want {
		t.Fatalf("score_vm_admits_total = %d, want %d", got, want)
	}
	if got, want := d.m.removes.Value(), removes.Load(); got != want {
		t.Fatalf("score_vm_removes_total = %d, want %d", got, want)
	}
	// Every HTTP batch was decoded once, and by the scanner: the writers'
	// encoder is the canonical one.
	if got, want := d.m.decodeLatency.Count(), sentHTTP.Load(); got != want || want == 0 {
		t.Fatalf("score_ingest_decode_seconds_count = %d, writers posted %d batches", got, want)
	}
	if n := d.m.decodeFallback.Value(); n != 0 {
		t.Fatalf("score_ingest_decode_fallback_total = %d, want 0", n)
	}
	if d.m.backpressure.Value() < dropped.Load() {
		t.Fatalf("backpressure counter %d < %d drops writers saw", d.m.backpressure.Value(), dropped.Load())
	}
	t.Logf("soak: %d samples in %d batches, %d admits, %d removes, %d backpressure drops",
		sentApplied.Load(), sentBatches.Load(), admits.Load(), removes.Load(), dropped.Load())

	// Stable phase: the churn has stopped, so every remaining auto or
	// stepped round runs on a frozen workload and the cost trajectory
	// from here on must never rise.
	markRound := d.Rounds()
	if _, err := d.Step(0); err != nil {
		t.Fatalf("quiescing step: %v", err)
	}
	hist := d.History()
	var prev float64
	seen := false
	for _, h := range hist {
		if h.Round <= markRound {
			continue
		}
		if seen && h.Cost > prev+1e-6 {
			t.Fatalf("cost rose on stable workload: round %d %.9g -> round %d %.9g", h.Round-1, prev, h.Round, h.Cost)
		}
		prev, seen = h.Cost, true
	}
	if !seen {
		t.Fatal("no rounds recorded after the workload stabilized")
	}

	// Shutdown: the state loop and every helper goroutine exit.
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d now vs %d baseline\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
