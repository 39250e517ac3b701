package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"github.com/score-dc/score"
	"github.com/score-dc/score/bench/gen"
)

// buildScored compiles the real cmd/scored binary into out/ and records
// how long the toolchain took (excluded from setup_s).
func buildScored(r *run) (string, error) {
	bin := filepath.Join(r.opt.outDir, "scored")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/scored")
	cmd.Dir = r.opt.repoDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/scored: %v\n%s", err, out)
	}
	r.notes["build_s"] = time.Since(t0).Seconds()
	r.m.skip()
	return bin, nil
}

// The daemon's trace and audit ring sizes — scored's own defaults,
// passed explicitly so that the audit check and the ladder's in-process
// daemon work from the same numbers. A round that stages more decisions
// than auditEvents has already overwritten some of its own records.
const (
	traceEvents = 1 << 14
	auditEvents = 1 << 14
)

// daemon is one running scored process, reached only through its flags
// and its HTTP API.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    *os.File
	exited chan struct{}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon spawns scored in manual-round mode on a free port and
// returns once GET /v1/status answers.
func startDaemon(r *run, bin string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(r.opt.outDir, r.opt.workload+".scored.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	all := append([]string{"-addr", addr, "-round-interval", "0", "-log-level", "warn",
		"-trace-events", strconv.Itoa(traceEvents), "-audit-events", strconv.Itoa(auditEvents)}, args...)
	cmd := exec.Command(bin, all...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() {
		cmd.Wait() // the exit status is not a result; stop() only needs the process gone
		close(d.exited)
	}()
	probe := newConn(d.base)
	defer probe.close()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if status, _, err := probe.do(http.MethodGet, "/v1/status", nil); err == nil && status == http.StatusOK {
			return d, nil
		}
		select {
		case <-d.exited:
			logf.Close()
			return nil, fmt.Errorf("scored exited during start-up; see %s", logf.Name())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("scored not ready after 60 s; see %s", logf.Name())
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) cpuSeconds() (float64, error) { return procCPUSeconds(d.pid()) }

func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(strconv.Itoa(d.pid())) }

// stop sends SIGTERM, waits for the process to end (killing it after
// 20 s) and closes its log. Safe to call twice.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	select {
	case <-d.exited:
	default:
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(20 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
		}
	}
	d.log.Close()
}

// conn is one keep-alive HTTP connection to the daemon.
type conn struct {
	base   string
	client *http.Client
	buf    bytes.Buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, client: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// do sends one request and returns the status and the whole reply body;
// the returned slice is valid until the next call.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// call is do plus a status check and, when into is non-nil, a JSON
// decode of the reply.
func (c *conn) call(method, path string, body []byte, want int, into any) error {
	status, reply, err := c.do(method, path, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, status, want, bytes.TrimSpace(reply))
	}
	if into != nil {
		if err := json.Unmarshal(reply, into); err != nil {
			return fmt.Errorf("%s %s: reply %q: %w", method, path, reply, err)
		}
	}
	return nil
}

// Reply shapes of the daemon's API, as documented in serve/doc.go.
type (
	observeReply struct {
		Applied  int `json:"applied"`
		Rejected int `json:"rejected"`
	}
	vmReply struct {
		ID    uint32 `json:"id"`
		RAMMB int    `json:"ram_mb"`
		Host  int32  `json:"host"`
	}
	stepReply struct {
		RoundsRun int     `json:"rounds_run"`
		Applied   int     `json:"applied"`
		Cost      float64 `json:"cost"`
		Quiesced  bool    `json:"quiesced"`
	}
	roundSummary struct {
		Round         uint64  `json:"round"`
		Applied       int     `json:"applied"`
		Cost          float64 `json:"cost"`
		RealizedDelta float64 `json:"realized_delta"`
	}
	statusReply struct {
		VMs    int    `json:"vms"`
		Pairs  int    `json:"pairs"`
		Rounds uint64 `json:"rounds"`
		Ingest struct {
			Samples         uint64 `json:"samples"`
			SamplesRejected uint64 `json:"samples_rejected"`
			Backpressure    uint64 `json:"backpressure"`
		} `json:"ingest"`
		History []roundSummary `json:"history"`
	}
	auditRecord struct {
		Round   uint32 `json:"round"`
		VM      uint32 `json:"vm"`
		To      int32  `json:"to"`
		Verdict string `json:"verdict"`
	}
)

func (a auditRecord) applied() bool { return a.Verdict == "merged" || a.Verdict == "cross_applied" }

// sample is one rate observation on the wire.
type sample struct {
	a, b uint32
	rate float64
}

// appendObserve appends a POST /v1/observe body for the samples.
func appendObserve(dst []byte, source string, samples []sample) []byte {
	dst = append(dst, `{"source":"`...)
	dst = append(dst, source...)
	dst = append(dst, `","samples":[`...)
	for i, s := range samples {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"a":`...)
		dst = strconv.AppendUint(dst, uint64(s.a), 10)
		dst = append(dst, `,"b":`...)
		dst = strconv.AppendUint(dst, uint64(s.b), 10)
		dst = append(dst, `,"rate_mbps":`...)
		dst = strconv.AppendFloat(dst, s.rate, 'g', -1, 64)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// loadDaemon replays a generated instance into an empty daemon: every
// VM admitted under its own ID on its own host, then the whole traffic
// matrix in observe batches of maxObserve samples. It returns how many
// samples were sent (all must be applied). It is a set-up stage, and
// marks its progress on the meter.
func loadDaemon(m *meter, c *conn, inst *gen.Instance) (int, error) {
	var body []byte
	for i, vm := range inst.Cl.VMs() {
		if i%512 == 511 {
			m.lap()
		}
		body = append(body[:0], `{"id":`...)
		body = strconv.AppendUint(body, uint64(vm), 10)
		body = append(body, `,"ram_mb":1024,"host":`...)
		body = strconv.AppendInt(body, int64(inst.Cl.HostOf(vm)), 10)
		body = append(body, '}')
		var rep vmReply
		if err := c.call(http.MethodPost, "/v1/vms", body, http.StatusCreated, &rep); err != nil {
			return 0, err
		}
		if rep.ID != uint32(vm) || rep.Host != int32(inst.Cl.HostOf(vm)) {
			return 0, fmt.Errorf("admit VM %d on host %d: daemon says VM %d on host %d", vm, inst.Cl.HostOf(vm), rep.ID, rep.Host)
		}
	}
	const maxObserve = 4096 // the API's batch cap
	batch := make([]sample, 0, maxObserve)
	sent := 0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		body = appendObserve(body[:0], "bench-load", batch)
		var rep observeReply
		if err := c.call(http.MethodPost, "/v1/observe", body, http.StatusOK, &rep); err != nil {
			return err
		}
		if rep.Applied != len(batch) || rep.Rejected != 0 {
			return fmt.Errorf("matrix load: sent %d samples, applied %d, rejected %d", len(batch), rep.Applied, rep.Rejected)
		}
		sent += len(batch)
		batch = batch[:0]
		m.lap()
		return nil
	}
	var err error
	inst.TM.ForEachPair(func(a, b score.VMID, rate float64) {
		if err != nil {
			return
		}
		batch = append(batch, sample{uint32(a), uint32(b), rate})
		if len(batch) == maxObserve {
			err = flush()
		}
	})
	if err != nil {
		return 0, err
	}
	return sent, flush()
}

// daemonArgs are the scored flags for a generated fat-tree instance.
func daemonArgs(k int, inst *gen.Instance) []string {
	return []string{"-topo", "fattree", "-k", strconv.Itoa(k), "-slots", strconv.Itoa(inst.Slots), "-ram-mb", strconv.Itoa(inst.RAMMB)}
}
