// Package span is the benchmark's own span recorder: the runner wraps
// every op, and every call an op makes into a layer of the program, in
// a span kept in memory and written out when the run ends. Nothing in
// the program under test is instrumented; spans inside it are a later
// change.
package span

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval. Parent is the ID of the span that caused
// it (-1 for an op's root span); spans of one op share Op.
type Span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	Op      int32  `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Recorder collects spans. A nil *Recorder records nothing, so an
// untraced run pays one nil check per call site.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewRecorder returns a recorder whose clock starts now.
func NewRecorder() *Recorder {
	return &Recorder{t0: time.Now(), spans: make([]Span, 0, 1<<14)}
}

// Start opens a span under parent (-1 for a root) and returns its ID.
func (r *Recorder) Start(parent int32, name string, op int) int32 {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Op: int32(op), StartNs: now, EndNs: -1})
	r.mu.Unlock()
	return id
}

// End closes the span Start returned.
func (r *Recorder) End(id int32) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].EndNs = now
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as a JSON array.
func WriteFile(path string, spans []Span) error {
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// SelfNs returns every span's self time: its duration minus the part of
// that interval its direct children cover (overlapping children are
// merged first, so concurrent children are not counted twice).
func SelfNs(spans []Span) []int64 {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := spans[k].StartNs, spans[k].EndNs
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNs - s.StartNs - covered
	}
	return self
}

// DurationsMs groups span durations, in milliseconds, by span name.
func DurationsMs(spans []Span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNs-s.StartNs)/1e6)
	}
	return out
}
