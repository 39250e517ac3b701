package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"
)

// TraceJSONEvent is the JSON wire form of one trace event.
type TraceJSONEvent struct {
	Kind    string  `json:"kind"`
	T       int64   `json:"t_ns"`
	Round   uint32  `json:"round"`
	Shard   int16   `json:"shard"`
	Attempt uint32  `json:"attempt,omitempty"`
	Arg     int64   `json:"arg,omitempty"`
	Value   float64 `json:"value,omitempty"`
	Code    uint8   `json:"code,omitempty"`
}

// traceViews renders events for encoding (never nil).
func traceViews(events []Event) []TraceJSONEvent {
	out := make([]TraceJSONEvent, len(events))
	for i, e := range events {
		out[i] = TraceJSONEvent{
			Kind: e.Kind.String(), T: e.T, Round: e.Round, Shard: e.Shard,
			Attempt: e.Attempt, Arg: e.Arg, Value: e.Value, Code: e.Code,
		}
	}
	return out
}

// WriteTraceJSON encodes events as a JSON array — the /trace wire form,
// shared with flight-recorder bundles.
func WriteTraceJSON(w io.Writer, events []Event) error {
	return json.NewEncoder(w).Encode(traceViews(events))
}

// WriteAuditJSON encodes audit records as a JSON array — the /audit and
// /v1/audit wire form, shared with flight-recorder bundles and the
// scoresim dump.
func WriteAuditJSON(w io.Writer, recs []AuditRecord) error {
	return json.NewEncoder(w).Encode(JSONViews(recs))
}

// queryInt64 parses an optional non-negative integer query parameter;
// absent or empty yields def, garbage yields an error flag.
func queryInt64(r *http.Request, key string, def int64) (int64, bool) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return def, true
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// ServeTrace answers one /trace request: the ring's retained events,
// optionally filtered by ?round=N and/or ?shard=S. Round-scoped events
// recorded with Shard -1 (round start/end, reconcile verdicts) pass a
// shard filter only when it asks for -1 explicitly via shard being
// absent — a positive shard filter selects that ring's events alone.
func ServeTrace(w http.ResponseWriter, r *http.Request, tr *Tracer) {
	round, okR := queryInt64(r, "round", -1)
	shard, okS := queryInt64(r, "shard", -1)
	if !okR || !okS {
		http.Error(w, "round and shard must be non-negative integers", http.StatusBadRequest)
		return
	}
	events := tr.Snapshot()
	if round >= 0 || shard >= 0 {
		kept := events[:0]
		for _, e := range events {
			if round >= 0 && int64(e.Round) != round {
				continue
			}
			if shard >= 0 && int64(e.Shard) != shard {
				continue
			}
			kept = append(kept, e)
		}
		events = kept
	}
	w.Header().Set("Content-Type", "application/json")
	WriteTraceJSON(w, events)
}

// ServeAudit answers one /audit request: the ring's retained records,
// optionally filtered by ?vm=N and/or ?round=N.
func ServeAudit(w http.ResponseWriter, r *http.Request, ar *AuditRing) {
	vm, okV := queryInt64(r, "vm", -1)
	round, okR := queryInt64(r, "round", -1)
	if !okV || !okR {
		http.Error(w, "vm and round must be non-negative integers", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	WriteAuditJSON(w, ar.Select(vm, round))
}

// Handler returns the observability mux: /metrics (Prometheus text
// format), /trace (JSON ring dump, ?round=&shard= filtered), /audit
// (JSON decision-provenance dump, ?vm=&round= filtered), and
// /debug/pprof/*. tr and ar are optional; their routes vanish when nil,
// and a ring that is served also gets its overwrite count registered on
// reg (score_{trace,audit}_dropped_total).
// Handlers are wired onto a private mux so importing obs never mutates
// http.DefaultServeMux.
func Handler(reg *Registry, tr *Tracer, ar *AuditRing) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	if tr != nil {
		reg.CounterFunc("score_trace_dropped_total", "Trace events overwritten before anyone read them.",
			func() float64 { return float64(tr.Dropped()) })
		mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
			ServeTrace(w, r, tr)
		})
	}
	if ar != nil {
		reg.CounterFunc("score_audit_dropped_total", "Audit records overwritten before anyone read them.",
			func() float64 { return float64(ar.Dropped()) })
		mux.HandleFunc("/audit", func(w http.ResponseWriter, r *http.Request) {
			ServeAudit(w, r, ar)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte("score observability\n/metrics\n/trace\n/audit\n/debug/pprof/\n"))
	})
	return mux
}

// RegisterRuntime adds scrape-time gauges for Go runtime health. ReadMemStats
// stops the world briefly, so these are computed per scrape, never polled.
func RegisterRuntime(reg *Registry) {
	reg.GaugeFunc("go_goroutines", "Number of live goroutines.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	reg.GaugeFunc("go_heap_alloc_bytes", "Bytes of allocated heap objects.", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})
	reg.GaugeFunc("go_total_alloc_bytes", "Cumulative bytes allocated on the heap.", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.TotalAlloc)
	})
	reg.GaugeFunc("go_gc_pause_total_seconds", "Cumulative GC stop-the-world pause time.", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.PauseTotalNs) / 1e9
	})
}

// Server is a live observability endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the observability endpoint on addr (e.g. ":9090" or
// "127.0.0.1:0") and returns once the listener is bound, so a caller can
// scrape immediately. Close shuts it down.
func Serve(addr string, reg *Registry, tr *Tracer, ar *AuditRing) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(reg, tr, ar), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
