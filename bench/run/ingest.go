package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"github.com/score-dc/score"
	"github.com/score-dc/score/bench/gen"
	"github.com/score-dc/score/bench/span"
	"github.com/score-dc/score/bench/stat"
)

// The per-sample mix of an ingest batch. Churn is a new pair when the
// stream holds fewer pairs than it started with and a retirement
// otherwise — half each, and the matrix keeps its size to within a pair.
// Drawn independently, the two would let the pair count random-walk by
// ±3 % over a run, and with it every request's working set and the cost
// of the check rounds at the end.
const (
	shareUpdate = 0.70
	shareChurn  = 0.29 // the remaining 1 % is invalid
)

// request is one pre-encoded observe batch and the reply it must get.
type request struct {
	body              []byte
	applied, rejected int
	pairsAfter        int // the stream's pair count once this request is applied
}

// stream generates the requests and models the matrix they leave
// behind.
type stream struct {
	rng    *rand.Rand
	nVMs   uint32
	pairs  *pairSet
	target int // pairs the stream started with
	reqs   []request
	next   int // first request not yet sent
}

// newStream returns a generator over an instance's VMs and the pairs of
// its initial matrix.
func newStream(inst *gen.Instance, seed int64) *stream {
	s := &stream{
		rng:   rand.New(rand.NewSource(seed + 7919)),
		nVMs:  uint32(inst.Cl.NumVMs()),
		pairs: newPairSet(inst.TM.NumPairs()),
	}
	inst.TM.ForEachPair(func(a, b score.VMID, _ float64) { s.pairs.add(keyOf(uint32(a), uint32(b))) })
	s.target = s.pairs.len()
	return s
}

func randRate(rng *rand.Rand) float64 { return math.Round((0.05+100*rng.Float64())*1000) / 1000 }

// batch draws one request's samples and the counts its reply must carry.
func (s *stream) batch(n int, buf []sample) ([]sample, int, int) {
	buf = buf[:0]
	rejected := 0
	for len(buf) < n {
		switch u := s.rng.Float64(); {
		case u < shareUpdate:
			a, b := s.pairs.pick(s.rng).ends()
			buf = append(buf, sample{a, b, randRate(s.rng)})
		case u < shareUpdate+shareChurn && s.pairs.len() < s.target:
			for {
				a, b := 1+uint32(s.rng.Intn(int(s.nVMs))), 1+uint32(s.rng.Intn(int(s.nVMs)))
				if a == b || s.pairs.has(keyOf(a, b)) {
					continue
				}
				s.pairs.add(keyOf(a, b))
				buf = append(buf, sample{a, b, randRate(s.rng)})
				break
			}
		case u < shareUpdate+shareChurn:
			k := s.pairs.pick(s.rng)
			s.pairs.remove(k)
			a, b := k.ends()
			buf = append(buf, sample{a, b, 0})
		default:
			// Invalid: an endpoint the daemon never admitted, or a self-pair.
			a := 1 + uint32(s.rng.Intn(int(s.nVMs)))
			b := a
			if s.rng.Intn(2) == 0 {
				b = s.nVMs + 1 + uint32(s.rng.Intn(1000))
			}
			buf = append(buf, sample{a, b, randRate(s.rng)})
			rejected++
		}
	}
	return buf, n - rejected, rejected
}

// ingest is the write side of the traffic matrix: the real scored
// binary folding pre-encoded sFlow-style batches over one keep-alive
// connection, no rounds running.
type ingest struct {
	inst   *gen.Instance
	d      *daemon
	stream *stream
	conn   *conn

	sentApplied, sentRejected int // what every observe so far must have added up to
	refused                   int // 503 replies during the timed phase
	timed                     int // requests of the timed phase
}

func (g *ingest) setup(r *run) error {
	sz := r.opt.size
	bin, err := buildScored(r)
	if err != nil {
		return err
	}
	if g.inst, err = gen.FatTree(sz.daemonK, sz.vmsPerHost, r.opt.seed); err != nil {
		return err
	}
	r.m.lap()
	if g.d, err = startDaemon(r, bin, daemonArgs(sz.daemonK, g.inst)...); err != nil {
		return err
	}
	g.conn = newConn(g.d.base)
	if g.sentApplied, err = loadDaemon(&r.m, g.conn, g.inst); err != nil {
		return err
	}
	r.notes["vms"] = g.inst.Cl.NumVMs()
	r.notes["pairs"] = g.inst.TM.NumPairs()

	// A traced run sends its requests in quarters, each at least the
	// minimum size.
	total := scaled(sz.ingestRequests, r.opt.scale(), sz.minRequests)
	if r.opt.trace {
		total = tracedQuarters * scaled(sz.ingestRequests, r.opt.scale()/tracedQuarters, sz.minRequests)
	}
	total += sz.ingestWarm
	g.stream = newStream(g.inst, r.opt.seed)
	// One arena for all the bodies: ~44 bytes a sample.
	arena := make([]byte, 0, total*(sz.ingestBatch*44+64))
	var buf []sample
	for q := 0; q < total; q++ {
		var applied, rejected int
		buf, applied, rejected = g.stream.batch(sz.ingestBatch, buf)
		start := len(arena)
		arena = appendObserve(arena, "bench", buf)
		g.stream.reqs = append(g.stream.reqs, request{body: arena[start:len(arena):len(arena)], applied: applied, rejected: rejected, pairsAfter: g.stream.pairs.len()})
		if q%256 == 255 {
			r.m.lap()
		}
	}
	return g.send(r, sz.ingestWarm, nil, false)
}

func (g *ingest) cpuSeconds(*run) (float64, error) { return g.d.cpuSeconds() }

// send pushes the next n requests in a closed loop: the next one goes
// out when the reply to the last has been read and checked.
func (g *ingest) send(r *run, n int, rec *span.Recorder, counted bool) error {
	s := g.stream
	if s.next+n > len(s.reqs) {
		return fmt.Errorf("%d requests left, need %d", len(s.reqs)-s.next, n)
	}
	for q := 0; q < n; q++ {
		req := s.reqs[s.next]
		op := s.next
		s.next++
		root := rec.Start(-1, "ingest.request", op)
		t0 := time.Now()
		call := rec.Start(root, "serve.observe_http", op)
		status, reply, err := g.conn.do(http.MethodPost, "/v1/observe", req.body)
		rec.End(call)
		rec.End(root)
		if counted {
			r.m.op(t0)
			r.attempted++
		} else {
			r.m.lap()
		}
		var rep observeReply
		var fail string
		switch {
		case err != nil:
			fail = err.Error()
		case status == http.StatusServiceUnavailable:
			g.refused++
			fail = "refused with 503"
		case status != http.StatusOK:
			fail = fmt.Sprintf("status %d: %s", status, reply)
		case json.Unmarshal(reply, &rep) != nil:
			fail = fmt.Sprintf("unreadable reply %q", reply)
		default:
			g.sentApplied, g.sentRejected = g.sentApplied+rep.Applied, g.sentRejected+rep.Rejected
			if rep.Applied != req.applied || rep.Rejected != req.rejected {
				fail = fmt.Sprintf("applied %d rejected %d, want %d and %d", rep.Applied, rep.Rejected, req.applied, req.rejected)
			}
		}
		switch {
		case fail == "":
		case counted:
			r.failOp("request %d: %s", op, fail)
		default:
			return fmt.Errorf("warm-up request %d: %s", op, fail)
		}
	}
	return nil
}

func (g *ingest) work(r *run, share float64, rec *span.Recorder) error {
	n := scaled(r.opt.size.ingestRequests, share*r.opt.scale(), r.opt.size.minRequests)
	g.refused, g.timed = 0, n
	r.notes["requests"] = n
	r.notes["samples"] = n * r.opt.size.ingestBatch
	return g.send(r, n, rec, true)
}

// tailMs is the p95 request: 7,000 like requests leave 350 beyond it.
// The p99 rests on the host's scheduling hiccups more than on the
// daemon: run to run it spread half as wide again as the p95, and one
// A/A set's quartiles were 44 % apart.
func (g *ingest) tailMs(lat []float64) float64 { return stat.Percentile(lat, 95) }

func (g *ingest) finish(r *run) (quality, error) {
	defer g.close()
	c := g.conn
	rss, err := g.d.peakRSSMB()
	if err != nil {
		return quality{}, err
	}
	var st statusReply
	if err := c.call(http.MethodGet, "/v1/status", nil, http.StatusOK, &st); err != nil {
		return quality{}, err
	}
	wantPairs := g.stream.reqs[g.stream.next-1].pairsAfter
	switch {
	case st.VMs != g.inst.Cl.NumVMs():
		r.failOp("status: %d VMs, want %d", st.VMs, g.inst.Cl.NumVMs())
	case st.Pairs != wantPairs:
		r.failOp("status: %d pairs, the model has %d", st.Pairs, wantPairs)
	case st.Ingest.Samples != uint64(g.sentApplied) || st.Ingest.SamplesRejected != uint64(g.sentRejected):
		r.failOp("status: %d samples applied and %d rejected, the replies added up to %d and %d",
			st.Ingest.Samples, st.Ingest.SamplesRejected, g.sentApplied, g.sentRejected)
	case st.Ingest.Backpressure != 0:
		r.failOp("status: %d ops dropped under backpressure", st.Ingest.Backpressure)
	}
	// No round has run, so every VM is still where it was admitted.
	vms := g.inst.Cl.VMs()
	for _, vm := range []score.VMID{vms[0], vms[len(vms)/2], vms[len(vms)-1]} {
		var rep vmReply
		if err := c.call(http.MethodGet, fmt.Sprintf("/v1/vms/%d", vm), nil, http.StatusOK, &rep); err != nil {
			r.failOp("%v", err)
		} else if rep.Host != int32(g.inst.Cl.HostOf(vm)) {
			r.failOp("VM %d on host %d, admitted on %d", vm, rep.Host, g.inst.Cl.HostOf(vm))
		}
	}
	// The ingested matrix must be one the scheduler can work on: rounds
	// to quiescence, outside the timed phase, give the cost metrics.
	q, err := stepAndScore(r, c, st.VMs)
	q.peakRSSMB = rss
	return q, err
}

func (g *ingest) close() {
	if g.conn != nil {
		g.conn.close()
	}
	g.d.stop()
	g.d = nil
}
