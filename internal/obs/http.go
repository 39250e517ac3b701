package obs

import (
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
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
// scoresim dump. Its bytes are encoding/json's for the records'
// AuditJSONRecord views, trailing newline included, and it writes them
// in one call. A NaN or infinite ΔC fails as it does there, with nothing
// written. The buffer is recycled, so a warm encode allocates nothing.
func WriteAuditJSON(w io.Writer, recs []AuditRecord) (err error) {
	bp := auditBufs.Get().(*[]byte)
	b := append((*bp)[:0], '[')
	for i := range recs {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = recs[i].JSONView().appendJSON(b); err != nil {
			break
		}
	}
	if err == nil {
		b = append(b, ']', '\n')
		_, err = w.Write(b)
	}
	*bp = b
	auditBufs.Put(bp)
	return err
}

var auditBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendJSON appends v as encoding/json encodes it: fields in
// declaration order, floats under its rule (see appendJSONFloat).
func (v AuditJSONRecord) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, v.Seq, 10)
	b = append(b, `,"t_ns":`...)
	b = strconv.AppendInt(b, v.T, 10)
	b = append(b, `,"round":`...)
	b = strconv.AppendUint(b, uint64(v.Round), 10)
	b = append(b, `,"shard":`...)
	b = strconv.AppendInt(b, int64(v.Shard), 10)
	b = append(b, `,"attempt":`...)
	b = strconv.AppendUint(b, uint64(v.Attempt), 10)
	b = append(b, `,"hop":`...)
	b = strconv.AppendInt(b, int64(v.Hop), 10)
	b = append(b, `,"vm":`...)
	b = strconv.AppendUint(b, uint64(v.VM), 10)
	b = append(b, `,"from":`...)
	b = strconv.AppendInt(b, int64(v.From), 10)
	b = append(b, `,"to":`...)
	b = strconv.AppendInt(b, int64(v.To), 10)
	// Verdict strings are plain ASCII: nothing in them needs escaping.
	b = append(b, `,"verdict":"`...)
	b = append(b, v.Verdict...)
	b = append(b, `","staged_bits":`...)
	b = strconv.AppendUint(b, v.StagedBits, 10)
	b = append(b, `,"final_bits":`...)
	b = strconv.AppendUint(b, v.FinalBits, 10)
	b = append(b, `,"staged_delta":`...)
	at := len(b)
	b, err := appendJSONFloat(b, v.StagedDelta)
	if err != nil {
		return b, err
	}
	staged := b[at:]
	b = append(b, `,"final_delta":`...)
	if v.FinalBits == v.StagedBits {
		// Most records re-validate at their staged ΔC: copy its rendering.
		b = append(b, staged...)
	} else if b, err = appendJSONFloat(b, v.FinalDelta); err != nil {
		return b, err
	}
	return append(b, '}'), nil
}

// appendJSONFloat appends f under encoding/json's float64 rule: 'f'
// format for 0 and for 1e-6 ≤ |f| < 1e21, 'e' otherwise with a leading
// zero of a negative two-digit exponent dropped (1e-07 → 1e-7). NaN and
// ±Inf are refused with encoding/json's error.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
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
	events := tr.filter(func(e *Event) bool {
		return (round < 0 || int64(e.Round) == round) && (shard < 0 || int64(e.Shard) == shard)
	})
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

// Server is a live HTTP endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve serves h on addr (e.g. ":9090" or "127.0.0.1:0") and returns once
// the listener is bound, so a caller can request immediately: the
// observability mux (Handler) behind -metrics-addr, or scored's whole
// API. Close shuts it down.
func Serve(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
