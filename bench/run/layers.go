package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"github.com/score-dc/score/bench/gen"
	"github.com/score-dc/score/bench/span"
	"github.com/score-dc/score/bench/stat"
)

// spanMetrics maps the client-side span names of the request-serving
// workloads to the per-layer metric each one's median duration feeds.
var spanMetrics = map[string]string{
	"serve.observe_http": "serve.observe_http_ms",
	"serve.round":        "serve.round_ms",
	"serve.admit":        "serve.admit_ms",
	"serve.delete":       "serve.delete_ms",
	"serve.patch":        "serve.patch_ms",
	"serve.get_vm":       "serve.get_vm_ms",
	"serve.status":       "serve.status_ms",
	"serve.audit":        "serve.audit_ms",
}

// spanLayerMetrics turns a run's spans into the client-side serve
// metrics: the median duration per request kind, 0 for a kind this
// workload never sends.
func spanLayerMetrics(spans []span.Span) map[string]float64 {
	out := make(map[string]float64, len(spanMetrics))
	byName := span.DurationsMs(spans)
	for name, metric := range spanMetrics {
		out[metric] = stat.Median(byName[name])
	}
	return out
}

// ladderBodies is how many observe bodies the in-process serve rungs
// decode and fold.
const ladderBodies = 32

// runLadder runs the per-layer pass: it builds the ladder program —
// the only part of the benchmark that imports the program's internal
// packages, and a separate binary so that an internal refactor can
// break a traced run but never an untraced one — and hands it the
// workload's instance by seed. fat is the workload's own fat-tree at
// arity fatK; a workload without one gets the daemon's, and every
// workload gets the paper's canonical tree, so every traced run reports
// every rung. extra carries what only the workload itself can count.
func runLadder(r *run, fat *gen.Instance, fatK int, spans []span.Span, extra map[string]float64) (map[string]float64, error) {
	sz := r.opt.size
	if fat == nil {
		fatK = sz.daemonK
		var err error
		if fat, err = gen.FatTree(fatK, sz.vmsPerHost, r.opt.seed); err != nil {
			return nil, err
		}
	}
	in := gen.LadderInputs{
		FatK: fatK, VMsPerHost: sz.vmsPerHost,
		Canon: sz.paperTree, CanonVMsPerHost: sz.paperVMsPerHost,
		TraceEvents: traceEvents, AuditEvents: auditEvents,
		Seed: r.opt.seed, Dir: r.opt.outDir, Toy: sz.name == "toy",
		Bodies: make([][]byte, ladderBodies),
	}
	stream := newStream(fat, r.opt.seed)
	var buf []sample
	for i := range in.Bodies {
		buf, _, _ = stream.batch(sz.ingestBatch, buf)
		in.Bodies[i] = appendObserve(nil, "bench", buf)
	}
	stdin, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}

	bin := filepath.Join(r.opt.outDir, "ladder")
	build := exec.Command("go", "build", "-o", bin, "./ladder")
	build.Dir = r.opt.benchDir
	if msg, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./ladder: %v\n%s", err, msg)
	}
	cmd := exec.Command(bin)
	cmd.Stdin = bytes.NewReader(stdin)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	var out map[string]float64
	if err := json.Unmarshal(stdout, &out); err != nil {
		return nil, fmt.Errorf("ladder output %q: %w", stdout, err)
	}
	for k, v := range spanLayerMetrics(spans) {
		out[k] = v
	}
	out["serve.read_during_round_ms"] = 0
	out["serve.backpressure_ratio"] = 0
	for k, v := range extra {
		out[k] = v
	}
	return out, nil
}

func (c *converge) ladder(r *run, spans []span.Span) (map[string]float64, error) {
	return runLadder(r, c.inst, r.opt.size.convergeK, spans, nil)
}

func (g *ingest) ladder(r *run, spans []span.Span) (map[string]float64, error) {
	extra := map[string]float64{}
	if g.timed > 0 {
		extra["serve.backpressure_ratio"] = float64(g.refused) / float64(g.timed)
	}
	return runLadder(r, g.inst, r.opt.size.daemonK, spans, extra)
}

func (w *react) ladder(r *run, spans []span.Span) (map[string]float64, error) {
	extra := map[string]float64{"serve.read_during_round_ms": stat.Median(w.readMs)}
	return runLadder(r, w.inst, r.opt.size.daemonK, spans, extra)
}

func (p *paper) ladder(r *run, spans []span.Span) (map[string]float64, error) {
	return runLadder(r, nil, 0, spans, nil)
}
