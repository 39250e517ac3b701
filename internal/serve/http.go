package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/obs"
)

// maxBody bounds request bodies; the largest legitimate payload is an
// observation batch of maxBatchSamples entries.
const maxBody = 1 << 20

// maxBatchSamples caps one observation batch — the batching contract:
// a source coalesces its samples into batches of at most this size.
const maxBatchSamples = 4096

// Handler returns the daemon's HTTP mux: the /v1 placement API plus the
// observability plane (/metrics, /trace, /audit, /debug/pprof/) on the
// same listener. Routing is manual (method switches per path) — the
// module targets Go 1.21, before ServeMux learned method patterns.
// Every route is wrapped in the SLO middleware, labeled by its mux
// pattern (never the raw URL), so request latency, in-flight and volume
// land on /metrics with bounded cardinality.
func (d *Daemon) Handler() http.Handler {
	hm := obs.NewHTTPMetrics(d.reg)
	mux := http.NewServeMux()
	mount := func(route string, h http.HandlerFunc) {
		mux.Handle(route, hm.WrapFunc(route, h))
	}
	mount("/v1/vms", d.handleVMs)
	mount("/v1/vms/", d.handleVMByID)
	mount("/v1/observe", d.handleObserve)
	mount("/v1/rounds", d.handleRounds)
	mount("/v1/status", d.handleStatus)
	mount("/v1/snapshot", d.handleSnapshot)
	if d.ar != nil {
		mount("/v1/audit", d.handleAudit)
	}
	if d.flight != nil {
		mount("/v1/flightrecorder", d.handleFlightRecorder)
	}
	mux.Handle("/", hm.Wrap("/", obs.Handler(d.reg, d.tr, d.ar)))
	return mux
}

// handleAudit serves the decision-provenance ring: every staged
// migration's merge/reconcile verdict with staged and re-validated ΔC
// bits, filtered by ?vm=N and/or ?round=N.
func (d *Daemon) handleAudit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET /v1/audit")
		return
	}
	obs.ServeAudit(w, r, d.ar)
}

type flightReply struct {
	Path string `json:"path"`
}

// handleFlightRecorder forces one flight-recorder capture, bypassing
// the anomaly rules and their rate limit, and returns the bundle path.
func (d *Daemon) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST /v1/flightrecorder")
		return
	}
	path, err := d.flight.Force("manual")
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, flightReply{Path: path})
}

type errorReply struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorReply{Error: msg})
}

// opStatus maps a daemon error to its HTTP status: unknown IDs are 404,
// capacity and placement conflicts 409, backpressure and shutdown 503
// (the dropped-and-counted contract), a pinned VM ID outside the
// cluster's ID window — the client's mistake, nothing changed — and
// anything else a 400.
func opStatus(err error) int {
	switch {
	case errors.Is(err, cluster.ErrIDOutsideWindow):
		return http.StatusBadRequest
	case errors.Is(err, cluster.ErrUnknownVM), errors.Is(err, cluster.ErrUnknownHost):
		return http.StatusNotFound
	case errors.Is(err, cluster.ErrNoCapacity), errors.Is(err, cluster.ErrAlreadyHosts):
		return http.StatusConflict
	case errors.Is(err, ErrBacklogged), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

var errTrailingData = errors.New("trailing data")

// decodeStrict decodes exactly one JSON value from r into dst; unknown
// fields and anything but whitespace up to a clean end of input are
// conformance failures, not noise to ignore.
func decodeStrict(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errTrailingData
	}
	return nil
}

// decodeJSON strictly decodes a request body of at most maxBody bytes
// into dst, answering 400 when it cannot.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, maxBody), dst); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

type admitBody struct {
	ID       *uint32 `json:"id"`
	RAMMB    int     `json:"ram_mb"`
	CPUMilli int     `json:"cpu_milli"`
	Host     *int32  `json:"host"`
}

type vmReply struct {
	ID       uint32 `json:"id"`
	RAMMB    int    `json:"ram_mb"`
	CPUMilli int    `json:"cpu_milli"`
	Host     int32  `json:"host"`
}

func (d *Daemon) handleVMs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST /v1/vms")
		return
	}
	var body admitBody
	if !decodeJSON(w, r, &body) {
		return
	}
	if body.RAMMB < 0 || body.CPUMilli < 0 {
		writeErr(w, http.StatusBadRequest, "negative resource demand")
		return
	}
	req := AdmitRequest{RAMMB: body.RAMMB, CPUMilli: body.CPUMilli}
	if body.ID != nil {
		if *body.ID == 0 {
			writeErr(w, http.StatusBadRequest, "VM id 0 is reserved")
			return
		}
		req.ID, req.HasID = cluster.VMID(*body.ID), true
	}
	if body.Host != nil {
		req.Host, req.HasHost = cluster.HostID(*body.Host), true
	}
	id, host, err := d.Admit(req)
	if err != nil {
		writeErr(w, opStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, vmReply{ID: uint32(id), RAMMB: body.RAMMB, CPUMilli: body.CPUMilli, Host: int32(host)})
}

type respecBody struct {
	RAMMB    *int `json:"ram_mb"`
	CPUMilli *int `json:"cpu_milli"`
}

func (d *Daemon) handleVMByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/vms/")
	n, err := strconv.ParseUint(rest, 10, 32)
	if err != nil || n == 0 {
		writeErr(w, http.StatusNotFound, "bad VM id "+strconv.Quote(rest))
		return
	}
	id := cluster.VMID(n)
	switch r.Method {
	case http.MethodGet:
		d.mu.RLock()
		vm, err := d.cl.VM(id)
		host := d.cl.HostOf(id)
		d.mu.RUnlock()
		if err != nil {
			writeErr(w, opStatus(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, vmReply{ID: uint32(vm.ID), RAMMB: vm.RAMMB, CPUMilli: vm.CPUMilli, Host: int32(host)})
	case http.MethodDelete:
		if err := d.RemoveVM(id); err != nil {
			writeErr(w, opStatus(err), err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case http.MethodPatch:
		var body respecBody
		if !decodeJSON(w, r, &body) {
			return
		}
		if body.RAMMB == nil && body.CPUMilli == nil {
			writeErr(w, http.StatusBadRequest, "nothing to change")
			return
		}
		if err := d.Respec(id, body.RAMMB, body.CPUMilli); err != nil {
			writeErr(w, opStatus(err), err.Error())
			return
		}
		d.mu.RLock()
		vm, verr := d.cl.VM(id)
		host := d.cl.HostOf(id)
		d.mu.RUnlock()
		if verr != nil {
			writeErr(w, opStatus(verr), verr.Error())
			return
		}
		writeJSON(w, http.StatusOK, vmReply{ID: uint32(vm.ID), RAMMB: vm.RAMMB, CPUMilli: vm.CPUMilli, Host: int32(host)})
	default:
		writeErr(w, http.StatusMethodNotAllowed, "GET, DELETE or PATCH /v1/vms/{id}")
	}
}

// sampleBody and observeBody are the reference decoder's targets for an
// observe body; scanObserve produces the same values without them.
type sampleBody struct {
	A        uint32  `json:"a"`
	B        uint32  `json:"b"`
	RateMbps float64 `json:"rate_mbps"`
}

type observeBody struct {
	Source  string       `json:"source"`
	Samples []sampleBody `json:"samples"`
}

type observeReply struct {
	Applied  int `json:"applied"`
	Rejected int `json:"rejected"`
}

// errReader fails every Read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeObserve reads an observe body into sc and decodes it into
// sc.samples: with scanObserve when that takes the bytes, else with the
// reference decoder every other route uses, over the same bytes and, if
// reading them failed, the same failure — so what is a 400, and what it
// says, is encoding/json's decision either way. It returns "" or the
// 400's message.
func (d *Daemon) decodeObserve(w http.ResponseWriter, r *http.Request, sc *observeScratch) string {
	sc.body.Reset()
	if n := r.ContentLength; n > 0 && n <= maxBody {
		sc.body.Grow(int(n) + bytes.MinRead)
	}
	_, readErr := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody))
	t0 := time.Now()
	var scanned bool
	if readErr == nil {
		_, sc.samples, scanned = scanObserve(sc.body.Bytes(), sc.samples)
	}
	if !scanned {
		d.m.decodeFallback.Inc()
		var replay io.Reader = bytes.NewReader(sc.body.Bytes())
		if readErr != nil {
			replay = io.MultiReader(replay, errReader{readErr})
		}
		var body observeBody
		if err := decodeStrict(replay, &body); err != nil {
			return "bad request body: " + err.Error()
		}
		if len(body.Samples) > maxBatchSamples {
			return "batch exceeds " + strconv.Itoa(maxBatchSamples) + " samples"
		}
		sc.samples = sc.samples[:0]
		for _, s := range body.Samples {
			sc.samples = append(sc.samples, RateSample{A: cluster.VMID(s.A), B: cluster.VMID(s.B), RateMbps: s.RateMbps})
		}
	}
	d.m.decodeLatency.Observe(time.Since(t0).Seconds())
	if len(sc.samples) == 0 {
		return "empty sample batch"
	}
	return ""
}

func (d *Daemon) handleObserve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST /v1/observe")
		return
	}
	sc := observePool.Get().(*observeScratch)
	if msg := d.decodeObserve(w, r, sc); msg != "" {
		observePool.Put(sc)
		writeErr(w, http.StatusBadRequest, msg)
		return
	}
	res := d.submit(&op{kind: opObserve, samples: sc.samples})
	// An op left in the queue at shutdown still points at the samples.
	if !res.queued {
		observePool.Put(sc)
	}
	if res.err != nil {
		writeErr(w, opStatus(res.err), res.err.Error())
		return
	}
	writeJSON(w, http.StatusOK, observeReply{Applied: res.applied, Rejected: res.rejected})
}

type roundsBody struct {
	Rounds int `json:"rounds"`
}

func (d *Daemon) handleRounds(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST /v1/rounds")
		return
	}
	body := roundsBody{Rounds: 1}
	if r.ContentLength != 0 {
		if !decodeJSON(w, r, &body) {
			return
		}
	}
	st, err := d.Step(body.Rounds)
	if err != nil {
		writeErr(w, opStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

type ingestStats struct {
	Batches         uint64 `json:"batches"`
	Samples         uint64 `json:"samples"`
	SamplesRejected uint64 `json:"samples_rejected"`
	Backpressure    uint64 `json:"backpressure"`
}

type statusReply struct {
	VMs      int            `json:"vms"`
	Hosts    int            `json:"hosts"`
	Pairs    int            `json:"pairs"`
	Rounds   uint64         `json:"rounds"`
	Cost     float64        `json:"cost"`
	Quiesced bool           `json:"quiesced"`
	Mode     string         `json:"mode"`
	Ingest   ingestStats    `json:"ingest"`
	History  []RoundSummary `json:"history"`
}

// statusHistory caps the history tail a status reply carries; the full
// ring stays available in-process via History.
const statusHistory = 32

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET /v1/status")
		return
	}
	d.mu.RLock()
	rep := statusReply{
		VMs:    d.cl.NumVMs(),
		Hosts:  d.cl.NumHosts(),
		Pairs:  d.tm.NumPairs(),
		Rounds: d.coord.Rounds(),
		// Cost is the value sampled at the end of the latest round; the
		// live figure would require folding engine accounting, which
		// only the state loop may do.
		Cost:     d.lastCost,
		Quiesced: d.quiesced,
		Mode:     "manual",
	}
	d.mu.RUnlock()
	if d.cfg.RoundInterval > 0 {
		rep.Mode = "auto"
	}
	rep.Ingest = ingestStats{
		Batches:         d.m.ingestBatches.Value(),
		Samples:         d.m.ingestSamples.Value(),
		SamplesRejected: d.m.ingestRejected.Value(),
		Backpressure:    d.m.backpressure.Value(),
	}
	rep.History = d.hist.Last(statusHistory)
	writeJSON(w, http.StatusOK, rep)
}

type snapshotBody struct {
	Path string `json:"path"`
}

type snapshotReply struct {
	Path string `json:"path"`
}

func (d *Daemon) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST /v1/snapshot")
		return
	}
	var body snapshotBody
	if r.ContentLength != 0 {
		if !decodeJSON(w, r, &body) {
			return
		}
	}
	path, err := d.Snapshot(body.Path)
	if err != nil {
		writeErr(w, opStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, snapshotReply{Path: path})
}
