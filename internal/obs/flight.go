package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// The flight recorder's settings. A bundle directory retains at most
// flightMaxBundles bundles, the oldest pruned before a new capture when
// the cap is reached. An automatic (rule-triggered) capture within
// flightMinGap of the previous one is counted but not captured; a manual
// Force bypasses the gap. A bundle's CPU profile samples for
// flightCPUProfile and its audit file carries the newest flightAuditTail
// records. Start's watcher polls the rules every flightPoll.
const (
	flightMaxBundles = 8
	flightMinGap     = time.Minute
	flightCPUProfile = 250 * time.Millisecond
	flightPoll       = 5 * time.Second
	flightAuditTail  = 4096
)

// flightRule is one armed anomaly detector, polled by the watcher.
type flightRule struct {
	name string
	// fire inspects live metric state (and updates the rule's own
	// bookkeeping) and reports whether the rule tripped this poll.
	fire func() bool
}

// FlightRecorder is the anomaly-triggered incident-capture plane: it
// watches registered histograms/gauges/counters against simple threshold
// rules and, on trigger (or a manual Force), atomically bundles the
// trace-ring contents, the audit-ring tail, a registry snapshot, and a
// pprof CPU+heap capture into one timestamped directory. Captures are
// bounded in count and rate-limited, so a flapping rule cannot fill a
// disk or stall the daemon.
type FlightRecorder struct {
	dir string // each capture is one flight-<timestamp>-<reason> subdirectory
	log *slog.Logger
	reg *Registry
	tr  *Tracer
	ar  *AuditRing

	captures *Counter
	skipped  *Counter

	mu    sync.Mutex // serializes rule evaluation and captures
	last  time.Time  // previous capture time (rate-limit anchor)
	rules []flightRule

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewFlightRecorder binds a recorder writing bundles under dir to its
// sources. log receives capture and trigger events; nil discards them.
// tr and ar are optional; absent sources simply leave their files out of
// bundles.
func NewFlightRecorder(dir string, log *slog.Logger, reg *Registry, tr *Tracer, ar *AuditRing) (*FlightRecorder, error) {
	if dir == "" {
		return nil, fmt.Errorf("obs: flight recorder needs a bundle directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &FlightRecorder{
		dir:      dir,
		log:      log,
		reg:      reg,
		tr:       tr,
		ar:       ar,
		captures: reg.Counter("score_flight_captures_total", "Flight-recorder bundles written."),
		skipped:  reg.Counter("score_flight_skipped_total", "Flight-recorder triggers suppressed by the rate limit."),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}, nil
}

// WatchHistogramEWMA arms a latency-anomaly rule on h: every poll the
// rule folds the histogram's delta since the previous poll into a
// window mean, tracks an EWMA of those means, and fires when the latest
// window's mean exceeds k times the EWMA. warmup is how many non-empty
// windows must have been folded before the rule may fire — without it
// the first slow round would compare against an EWMA of nothing.
func (f *FlightRecorder) WatchHistogramEWMA(name string, h *Histogram, k float64, warmup int) {
	var prevCount uint64
	var prevSum, ewma float64
	windows := 0
	const alpha = 0.3
	f.addRule(name, func() bool {
		count, sum := h.Count(), h.Sum()
		dc, ds := count-prevCount, sum-prevSum
		prevCount, prevSum = count, sum
		if dc == 0 {
			return false
		}
		mean := ds / float64(dc)
		fired := windows >= warmup && ewma > 0 && mean > k*ewma
		if windows == 0 {
			ewma = mean
		} else {
			ewma += alpha * (mean - ewma)
		}
		windows++
		return fired
	})
}

// WatchCounterIncrease arms a rule that fires whenever c advanced since
// the previous poll — the backpressure-503 trigger.
func (f *FlightRecorder) WatchCounterIncrease(name string, c *Counter) {
	prev := c.Value()
	f.addRule(name, func() bool {
		v := c.Value()
		fired := v > prev
		prev = v
		return fired
	})
}

// WatchGaugeIncrease arms a rule that fires when g rose by more than eps
// since the previous poll — the cost-increase trigger (S-CORE rounds
// only ever lower cost; a rise means ingested load shifted the plant).
func (f *FlightRecorder) WatchGaugeIncrease(name string, g *Gauge, eps float64) {
	prev := g.Value()
	f.addRule(name, func() bool {
		v := g.Value()
		fired := v > prev+eps
		prev = v
		return fired
	})
}

func (f *FlightRecorder) addRule(name string, fire func() bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, flightRule{name: name, fire: fire})
}

// Start launches the watcher goroutine polling the armed rules every
// flightPoll. Safe to call once; Close stops it.
func (f *FlightRecorder) Start() { f.start(flightPoll) }

func (f *FlightRecorder) start(poll time.Duration) {
	f.startOnce.Do(func() {
		go func() {
			defer close(f.done)
			t := time.NewTicker(poll)
			defer t.Stop()
			for {
				select {
				case <-f.stop:
					return
				case <-t.C:
					f.pollOnce()
				}
			}
		}()
	})
}

// pollOnce evaluates every rule (all of them, so their deltas advance
// even when rate-limited) and captures once if any fired.
func (f *FlightRecorder) pollOnce() {
	f.mu.Lock()
	reason := ""
	for i := range f.rules {
		if f.rules[i].fire() && reason == "" {
			reason = f.rules[i].name
		}
	}
	f.mu.Unlock()
	if reason == "" {
		return
	}
	if _, err := f.capture(reason, false); err != nil {
		f.log.Warn("flight capture failed", "reason", reason, "err", err)
	}
}

// Close stops the watcher. Safe without Start and safe to call twice.
func (f *FlightRecorder) Close() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.startOnce.Do(func() { close(f.done) }) // never started: unblock the wait
	<-f.done
}

// Force captures a bundle immediately, bypassing the rate limit (but
// not the bundle-count bound). It returns the bundle directory written.
func (f *FlightRecorder) Force(reason string) (string, error) {
	return f.capture(reason, true)
}

// flightMeta is the bundle's meta.json: enough to interpret the capture
// without the daemon that wrote it.
type flightMeta struct {
	Reason string   `json:"reason"`
	Manual bool     `json:"manual"`
	TNS    int64    `json:"t_ns"`
	Files  []string `json:"files"`
}

func (f *FlightRecorder) capture(reason string, manual bool) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	if !manual && !f.last.IsZero() && now.Sub(f.last) < flightMinGap {
		f.skipped.Inc()
		f.log.Info("flight trigger rate-limited", "reason", reason)
		return "", nil
	}
	f.last = now
	if err := f.pruneLocked(); err != nil {
		return "", err
	}
	dir := filepath.Join(f.dir,
		"flight-"+now.UTC().Format("20060102T150405.000000000")+"-"+sanitizeReason(reason))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	meta := flightMeta{Reason: reason, Manual: manual, TNS: now.UnixNano()}

	write := func(name string, fn func(io.Writer) error) error {
		fp, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(fp); err != nil {
			fp.Close()
			return fmt.Errorf("flight %s: %w", name, err)
		}
		if err := fp.Close(); err != nil {
			return err
		}
		meta.Files = append(meta.Files, name)
		return nil
	}

	if err := write("metrics.prom", f.reg.WritePrometheus); err != nil {
		return "", err
	}
	if f.tr != nil {
		if err := write("trace.json", func(w io.Writer) error {
			return WriteTraceJSON(w, f.tr.Snapshot())
		}); err != nil {
			return "", err
		}
	}
	if f.ar != nil {
		if err := write("audit.json", func(w io.Writer) error {
			recs := f.ar.Snapshot()
			if len(recs) > flightAuditTail {
				recs = recs[len(recs)-flightAuditTail:]
			}
			return WriteAuditJSON(w, recs)
		}); err != nil {
			return "", err
		}
	}
	if err := write("heap.pprof", func(w io.Writer) error {
		return pprof.WriteHeapProfile(w)
	}); err != nil {
		return "", err
	}
	// A CPU profile may already be running (an operator hitting
	// /debug/pprof/profile); losing the file is better than losing the
	// bundle.
	if err := write("cpu.pprof", func(w io.Writer) error {
		if err := pprof.StartCPUProfile(w); err != nil {
			return err
		}
		time.Sleep(flightCPUProfile)
		pprof.StopCPUProfile()
		return nil
	}); err != nil {
		f.log.Warn("flight cpu profile skipped", "err", err)
		os.Remove(filepath.Join(dir, "cpu.pprof"))
	}
	if err := write("meta.json", func(w io.Writer) error {
		// meta.json lists itself: the manifest names every file a
		// reader should expect, its own presence included.
		meta.Files = append(meta.Files, "meta.json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(meta)
	}); err != nil {
		return "", err
	}
	f.captures.Inc()
	f.log.Info("flight bundle captured", "dir", dir, "reason", reason, "manual", manual)
	return dir, nil
}

// pruneLocked removes the oldest bundles until one slot is free. Bundle
// directory names embed a fixed-width UTC timestamp, so lexicographic
// order is capture order.
func (f *FlightRecorder) pruneLocked() error {
	ents, err := os.ReadDir(f.dir)
	if err != nil {
		return err
	}
	var bundles []string
	for _, e := range ents {
		if e.IsDir() && len(e.Name()) > 7 && e.Name()[:7] == "flight-" {
			bundles = append(bundles, e.Name())
		}
	}
	sort.Strings(bundles)
	for len(bundles) >= flightMaxBundles {
		if err := os.RemoveAll(filepath.Join(f.dir, bundles[0])); err != nil {
			return err
		}
		bundles = bundles[1:]
	}
	return nil
}

// sanitizeReason maps a trigger reason into a filesystem-safe slug.
func sanitizeReason(s string) string {
	const maxLen = 48
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s) && len(out) < maxLen; i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
		default:
			out = append(out, '-')
		}
	}
	if len(out) == 0 {
		return "manual"
	}
	return string(out)
}
