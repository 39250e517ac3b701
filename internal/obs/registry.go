package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// metricKind discriminates the families a Registry can hold.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindGaugeFunc
	kindCounterFunc
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	case kindGaugeFunc:
		return "gauge"
	}
	return "untyped"
}

// Counter is a monotonically increasing uint64. The record path is a single
// atomic add: zero allocations, safe for any number of concurrent writers.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative deltas are a caller bug; they wrap and corrupt the
// series, so callers must pass non-negative values.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, stored as IEEE-754 bits in an
// atomic word. Set is a single store; Add is a CAS loop.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by d (d may be negative).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Buckets are defined once at
// registration; Observe does one binary search over the bounds plus three
// atomic updates — no allocations, safe for concurrent writers.
//
// Bucket counts are stored per-bucket (not cumulative); exposition cumulates.
type Histogram struct {
	bounds []float64 // sorted upper bounds; counts has len(bounds)+1 (last = +Inf)
	counts []atomic.Uint64
	sum    Gauge // CAS float accumulator
	count  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// series is one exposed time series inside a family: a label value (empty for
// scalar families) plus exactly one live metric matching the family kind.
type series struct {
	label string // label VALUE; the label name lives on the family
	c     *Counter
	g     *Gauge
	h     *Histogram
}

// family groups all series sharing one metric name.
type family struct {
	name  string
	help  string
	kind  metricKind
	label string // label name for vec families, "" for scalars
	fn    func() float64
	bound []float64 // histogram bounds

	mu  sync.Mutex
	ss  []*series
	idx map[string]int // label value -> index in ss
}

func (f *family) child(labelValue string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i, ok := f.idx[labelValue]; ok {
		return f.ss[i]
	}
	s := &series{label: labelValue}
	switch f.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		s.h = newHistogram(f.bound)
	}
	f.idx[labelValue] = len(f.ss)
	f.ss = append(f.ss, s)
	return s
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Registry owns a set of metric families and renders them in Prometheus text
// format. Registration is get-or-create by name: asking twice for the same
// name (from different subsystems) yields the same underlying metric, which
// is how planes share families like score_rounds_total without a central
// wiring point. Kind or bucket mismatches on an existing name panic —
// registration happens at construction time, so that is a programming error
// worth failing loudly on.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind, label string, bounds []float64) *family {
	validateName(name)
	if label != "" {
		validateName(label)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, f.kind))
		}
		if f.label != label {
			panic(fmt.Sprintf("obs: metric %q re-registered with label %q, was %q", name, label, f.label))
		}
		if kind == kindHistogram && !equalBounds(f.bound, bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, label: label, bound: bounds, idx: make(map[string]int)}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	return f
}

// Counter returns the counter registered under name, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, kindCounter, "", nil).child("").c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, kindGauge, "", nil).child("").g
}

// Histogram returns the histogram registered under name, creating it on first
// use. bounds are the bucket upper limits in increasing order; a final +Inf
// bucket is implicit. Pass DefLatencyBuckets for latency series so families
// shared across subsystems agree.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds not sorted", name))
	}
	return r.family(name, help, kindHistogram, "", bounds).child("").h
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// Useful for runtime stats (goroutines, heap) where polling is wasteful.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindGaugeFunc, "", nil)
	f.fn = fn
}

// CounterFunc registers a counter whose value is read at scrape time from
// a monotonic count some other structure already keeps (a ring's
// overwrites), instead of mirroring it on the record path.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindCounterFunc, "", nil)
	f.fn = fn
}

// CounterVec is a counter family partitioned by one label (e.g. shard).
// Cardinality must be small and bounded — see doc.go.
type CounterVec struct {
	f *family
}

// GaugeVec is a gauge family partitioned by one label.
type GaugeVec struct {
	f *family
}

// HistogramVec is a histogram family partitioned by one label (e.g.
// route). Children share the family's buckets. Resolve children once at
// construction (With) and hold the *Histogram — Observe is then the
// scalar zero-alloc path.
type HistogramVec struct {
	f *family
}

// HistogramVec returns the labeled histogram family registered under
// name. Empty bounds default to DefLatencyBuckets.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds not sorted", name))
	}
	return &HistogramVec{f: r.family(name, help, kindHistogram, label, bounds)}
}

// With returns the child histogram for the given label value.
func (v *HistogramVec) With(value string) *Histogram { return v.f.child(value).h }

// CounterVec returns the labeled counter family registered under name.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{f: r.family(name, help, kindCounter, label, nil)}
}

// GaugeVec returns the labeled gauge family registered under name.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, kindGauge, label, nil)}
}

// With returns the child counter for the given label value.
func (v *CounterVec) With(value string) *Counter { return v.f.child(value).c }

// With returns the child gauge for the given label value.
func (v *GaugeVec) With(value string) *Gauge { return v.f.child(value).g }

// DefLatencyBuckets covers 50µs..30s exponentially — wide enough for both
// in-process ring passes (tens of µs) and distributed rounds (hundreds of ms).
var DefLatencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10, 30,
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func validateName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0) || (c == ':' && i > 0)
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric/label name %q", name))
		}
	}
}
