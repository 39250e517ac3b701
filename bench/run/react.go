package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"github.com/score-dc/score"
	"github.com/score-dc/score/bench/gen"
	"github.com/score-dc/score/bench/span"
	"github.com/score-dc/score/bench/stat"
)

// stepAndScore drives a loaded daemon to quiescence and derives the cost
// metrics: cost at quiescence ÷ cost before the first round, and
// migrations per VM. On the way it checks the step replies against the
// status history and one early round's audit records against its
// applied count.
func stepAndScore(r *run, c *conn, vms int) (quality, error) {
	step := func(n int) (stepReply, roundSummary, error) {
		var rep stepReply
		var st statusReply
		if err := c.call(http.MethodPost, "/v1/rounds", []byte(`{"rounds":`+strconv.Itoa(n)+`}`), http.StatusOK, &rep); err != nil {
			return rep, roundSummary{}, err
		}
		if err := c.call(http.MethodGet, "/v1/status", nil, http.StatusOK, &st); err != nil {
			return rep, roundSummary{}, err
		}
		if len(st.History) == 0 || rep.RoundsRun < 1 {
			return rep, roundSummary{}, fmt.Errorf("stepping %d rounds ran %d and left %d history entries", n, rep.RoundsRun, len(st.History))
		}
		return rep, st.History[len(st.History)-1], nil
	}
	first, h, err := step(1)
	if err != nil {
		return quality{}, err
	}
	if h.Applied != first.Applied {
		r.failOp("check rounds: step reply applied %d, history %d", first.Applied, h.Applied)
	}
	before := h.Cost + h.RealizedDelta
	third, h, err := step(2)
	if err != nil {
		return quality{}, err
	}
	if h.Applied < auditEvents/4 {
		if err := checkAudit(c, h.Round, h.Applied, nil); err != nil {
			r.failOp("check rounds: %v", err)
		}
	}
	rest, _, err := step(0)
	if err != nil {
		return quality{}, err
	}
	if !rest.Quiesced {
		r.failOp("check rounds: %d rounds did not reach quiescence", rest.RoundsRun)
	}
	r.notes["check_rounds"] = first.RoundsRun + third.RoundsRun + rest.RoundsRun
	moves := first.Applied + third.Applied + rest.Applied
	return quality{costRatio: rest.Cost / before, movesPerVM: float64(moves) / float64(vms)}, nil
}

// checkAudit fetches round's audit records and verifies that as many
// carry an applied verdict as the round reported. When dest is non-nil
// it receives the destination of each applied VM.
func checkAudit(c *conn, round uint64, applied int, dest map[uint32]int32) error {
	var recs []auditRecord
	if err := c.call(http.MethodGet, "/v1/audit?round="+strconv.FormatUint(round, 10), nil, http.StatusOK, &recs); err != nil {
		return err
	}
	got := 0
	for _, a := range recs {
		if uint64(a.Round) != round {
			return fmt.Errorf("audit?round=%d returned a record of round %d", round, a.Round)
		}
		if a.applied() {
			got++
			if dest != nil {
				dest[a.VM] = a.To
			}
		}
	}
	if got != applied {
		return fmt.Errorf("round %d applied %d moves, its audit records say %d", round, applied, got)
	}
	return nil
}

// react is sample-to-decision latency on a restored daemon: a small
// change to traffic and population, one round, and the reads an
// operator makes to see what was decided.
type react struct {
	inst *gen.Instance
	d    *daemon
	c    *conn
	rng  *rand.Rand

	model *matrixModel
	live  []uint32 // admitted VM IDs, the pool hotspot groups come from
	round uint64   // rounds the daemon has run
	cycle int      // cycles run so far, warm-up included

	costAfter, costBefore float64 // summed over the timed rounds
	moves                 int
	readMs                []float64 // traced runs: status reads made while a round ran
}

func (w *react) setup(r *run) error {
	sz := r.opt.size
	bin, err := buildScored(r)
	if err != nil {
		return err
	}
	if w.inst, err = gen.FatTree(sz.daemonK, sz.vmsPerHost, r.opt.seed); err != nil {
		return err
	}
	r.m.lap()
	first, err := startDaemon(r, bin, daemonArgs(sz.daemonK, w.inst)...)
	if err != nil {
		return err
	}
	w.d = first
	c := newConn(first.base)
	if _, err := loadDaemon(&r.m, c, w.inst); err != nil {
		c.close()
		return err
	}
	// Converge, snapshot, and restart from the snapshot: the timed phase
	// runs on a daemon an operator has just brought back up.
	var step stepReply
	if err := c.call(http.MethodPost, "/v1/rounds", []byte(`{"rounds":0}`), http.StatusOK, &step); err != nil {
		c.close()
		return err
	}
	r.m.lap()
	snap := filepath.Join(r.opt.outDir, "react.snapshot.json")
	err = c.call(http.MethodPost, "/v1/snapshot", []byte(`{"path":`+strconv.Quote(snap)+`}`), http.StatusOK, nil)
	c.close()
	if err != nil {
		return err
	}
	first.stop()
	w.d = nil
	r.m.lap()
	t0 := time.Now()
	if w.d, err = startDaemon(r, bin, "-restore", snap); err != nil {
		return err
	}
	r.notes["restart_s"] = time.Since(t0).Seconds()
	r.m.lap()
	r.notes["rounds_to_quiescence"] = step.RoundsRun
	w.c = newConn(w.d.base)

	var st statusReply
	if err := w.c.call(http.MethodGet, "/v1/status", nil, http.StatusOK, &st); err != nil {
		return err
	}
	if st.VMs != w.inst.Cl.NumVMs() || st.Pairs != w.inst.TM.NumPairs() || st.Rounds != uint64(step.RoundsRun) {
		return fmt.Errorf("restored daemon holds %d VMs, %d pairs after %d rounds; snapshotted %d, %d, %d",
			st.VMs, st.Pairs, st.Rounds, w.inst.Cl.NumVMs(), w.inst.TM.NumPairs(), step.RoundsRun)
	}
	w.round = st.Rounds
	w.rng = rand.New(rand.NewSource(r.opt.seed + 104729))
	w.model = newMatrixModel(w.inst.TM.NumPairs())
	w.inst.TM.ForEachPair(func(a, b score.VMID, rate float64) { w.model.set(uint32(a), uint32(b), rate) })
	for _, vm := range w.inst.Cl.VMs() {
		w.live = append(w.live, uint32(vm))
	}
	r.notes["vms"] = st.VMs
	r.notes["pairs"] = st.Pairs
	for i := 0; i < sz.reactWarm; i++ {
		if err := w.runCycle(r, nil, false); err != nil {
			return err
		}
	}
	return nil
}

func (w *react) cpuSeconds(*run) (float64, error) { return w.d.cpuSeconds() }

func vmPath(vm uint32) string { return "/v1/vms/" + strconv.FormatUint(uint64(vm), 10) }

// window returns n consecutive entries of the live pool starting at a
// random offset that stays clear of [avoid, avoid+n).
func (w *react) window(n, avoid int) int {
	for {
		s := w.rng.Intn(len(w.live) - n + 1)
		if avoid < 0 || s+n <= avoid || s >= avoid+n {
			return s
		}
	}
}

// request is one API call under its own span.
func (w *react) request(rec *span.Recorder, parent int32, op int, name, method, path string, body []byte, want int, into any) error {
	sp := rec.Start(parent, name, op)
	err := w.c.call(method, path, body, want, into)
	rec.End(sp)
	return err
}

// observe sends one batch and checks the reply counts: every sample of a
// cycle names live VMs, so all must be applied.
func (w *react) observe(rec *span.Recorder, parent int32, op int, samples []sample, body []byte) ([]byte, error) {
	body = appendObserve(body[:0], "bench", samples)
	var rep observeReply
	if err := w.request(rec, parent, op, "serve.observe_http", http.MethodPost, "/v1/observe", body, http.StatusOK, &rep); err != nil {
		return body, err
	}
	if rep.Applied != len(samples) || rep.Rejected != 0 {
		return body, fmt.Errorf("observe: applied %d rejected %d of %d valid samples", rep.Applied, rep.Rejected, len(samples))
	}
	for _, s := range samples {
		w.model.set(s.a, s.b, s.rate)
	}
	return body, nil
}

// runCycle is one op: a hotspot shift, population churn, one round, and
// the reads that make the decision visible. Any failed request or check
// fails the cycle.
func (w *react) runCycle(r *run, rec *span.Recorder, counted bool) error {
	sz := r.opt.size
	g := sz.reactGroup
	op := w.cycle
	w.cycle++
	if counted {
		r.attempted++
	}

	// Plan the cycle's inputs before the clock starts.
	gs := w.window(g, -1)
	ps := w.window(g, gs)
	group := append([]uint32(nil), w.live[gs:gs+g]...)
	peers := append([]uint32(nil), w.live[ps:ps+g]...)
	const fan = 4 // new peers per group VM
	retire := make([]sample, 0, g*fan)
	for _, vm := range group {
		for _, p := range w.model.adj[vm] {
			if len(retire) < g*fan {
				retire = append(retire, sample{vm, p, 0})
			}
		}
	}
	for i := 0; len(retire) < g*fan; i++ { // pad to a fixed batch size with no-op retirements
		retire = append(retire, sample{group[i%g], peers[i%g], 0})
	}
	point := make([]sample, 0, g*fan)
	for i, vm := range group {
		for j := 0; j < fan; j++ {
			point = append(point, sample{vm, peers[(i*fan+j)%g], randRate(w.rng)})
		}
	}
	var victims [2]uint32
	for i := range victims {
		for {
			v := w.live[w.rng.Intn(len(w.live))]
			if i == 1 && v == victims[0] {
				continue
			}
			victims[i] = v
			break
		}
	}
	respec := w.live[w.rng.Intn(len(w.live))]
	for respec == victims[0] || respec == victims[1] {
		respec = w.live[w.rng.Intn(len(w.live))]
	}
	ram := 512 + 512*(op%2)

	var body []byte
	var fail error
	check := func(err error) bool {
		if err != nil && fail == nil {
			fail = err
		}
		return err == nil
	}
	root := rec.Start(-1, "react.cycle", op)
	t0 := time.Now()

	var err error
	body, err = w.observe(rec, root, op, retire, body)
	check(err)
	body, err = w.observe(rec, root, op, point, body)
	check(err)

	for i := 0; i < 2; i++ {
		var rep vmReply
		if check(w.request(rec, root, op, "serve.admit", http.MethodPost, "/v1/vms", []byte(`{"ram_mb":1024}`), http.StatusCreated, &rep)) {
			if rep.Host < 0 || int(rep.Host) >= w.inst.Cl.NumHosts() {
				check(fmt.Errorf("admit: VM %d placed on host %d", rep.ID, rep.Host))
			}
			w.live = append(w.live, rep.ID)
		}
	}
	for _, v := range victims {
		if check(w.request(rec, root, op, "serve.delete", http.MethodDelete, vmPath(v), nil, http.StatusNoContent, nil)) {
			w.model.removeVM(v)
			for i, id := range w.live {
				if id == v {
					w.live[i] = w.live[len(w.live)-1]
					w.live = w.live[:len(w.live)-1]
					break
				}
			}
		}
	}
	var patched vmReply
	if check(w.request(rec, root, op, "serve.patch", http.MethodPatch, vmPath(respec), []byte(`{"ram_mb":`+strconv.Itoa(ram)+`}`), http.StatusOK, &patched)) && patched.RAMMB != ram {
		check(fmt.Errorf("patch VM %d to %d MB: daemon says %d", respec, ram, patched.RAMMB))
	}

	var step stepReply
	stopReads := w.readDuringRound(rec)
	err = w.request(rec, root, op, "serve.round", http.MethodPost, "/v1/rounds", []byte(`{"rounds":1}`), http.StatusOK, &step)
	stopReads()
	if check(err) {
		w.round++
		if step.RoundsRun != 1 {
			check(fmt.Errorf("asked for 1 round, %d ran", step.RoundsRun))
		}
	}
	var st statusReply
	if check(w.request(rec, root, op, "serve.status", http.MethodGet, "/v1/status", nil, http.StatusOK, &st)) {
		switch {
		case st.VMs != len(w.live) || st.Pairs != w.model.pairs.len():
			check(fmt.Errorf("status: %d VMs %d pairs, the model has %d and %d", st.VMs, st.Pairs, len(w.live), w.model.pairs.len()))
		case st.Rounds != w.round || len(st.History) == 0 || st.History[len(st.History)-1].Round != w.round:
			check(fmt.Errorf("status: at round %d, expected %d", st.Rounds, w.round))
		case st.History[len(st.History)-1].Applied != step.Applied:
			check(fmt.Errorf("round %d: step reply applied %d, history %d", w.round, step.Applied, st.History[len(st.History)-1].Applied))
		}
	}
	dest := map[uint32]int32{}
	sp := rec.Start(root, "serve.audit", op)
	err = checkAudit(w.c, w.round, step.Applied, dest)
	rec.End(sp)
	check(err)

	// One moved VM must now be where its audit record sent it; on a round
	// that moved nothing, read any VM.
	look, want := respec, int32(-1)
	for vm, to := range dest {
		if want < 0 || vm < look {
			look, want = vm, to
		}
	}
	var got vmReply
	if check(w.request(rec, root, op, "serve.get_vm", http.MethodGet, vmPath(look), nil, http.StatusOK, &got)) && want >= 0 && got.Host != want {
		check(fmt.Errorf("VM %d is on host %d, round %d's audit record sent it to %d", look, got.Host, w.round, want))
	}
	rec.End(root)

	if !counted {
		r.m.lap()
		return fail
	}
	r.m.op(t0)
	if fail != nil {
		r.failOp("cycle %d: %v", op, fail)
		return nil
	}
	last := st.History[len(st.History)-1]
	w.costAfter += last.Cost
	w.costBefore += last.Cost + last.RealizedDelta
	w.moves += step.Applied
	return nil
}

// readDuringRound, on a traced run, polls GET /v1/status over a second
// connection until the returned stop function is called, recording how
// long each read took while the round held the state lock.
func (w *react) readDuringRound(rec *span.Recorder) (stop func()) {
	if rec == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := newConn(w.d.base)
		defer c.close()
		for {
			select {
			case <-done:
				return
			default:
			}
			t0 := time.Now()
			status, _, err := c.do(http.MethodGet, "/v1/status", nil)
			if err == nil && status == http.StatusOK {
				w.readMs = append(w.readMs, float64(time.Since(t0).Nanoseconds())/1e6)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	return func() { close(done); wg.Wait() }
}

func (w *react) work(r *run, share float64, rec *span.Recorder) error {
	n := scaled(r.opt.size.reactCycles, share*r.opt.scale(), r.opt.size.minCycles)
	w.costAfter, w.costBefore, w.moves = 0, 0, 0
	for i := 0; i < n; i++ {
		if err := w.runCycle(r, rec, true); err != nil {
			return err
		}
	}
	r.notes["cycles"] = n
	return nil
}

// tailMs is the p90 cycle: 220 like cycles leave 22 beyond it.
func (w *react) tailMs(lat []float64) float64 { return stat.Percentile(lat, 90) }

func (w *react) finish(r *run) (quality, error) {
	defer w.close()
	rss, err := w.d.peakRSSMB()
	if err != nil {
		return quality{}, err
	}
	var st statusReply
	if err := w.c.call(http.MethodGet, "/v1/status", nil, http.StatusOK, &st); err != nil {
		return quality{}, err
	}
	if st.Ingest.Backpressure != 0 {
		r.failOp("status: %d ops dropped under backpressure", st.Ingest.Backpressure)
	}
	if w.costBefore == 0 {
		return quality{}, fmt.Errorf("no cycle completed")
	}
	return quality{costRatio: w.costAfter / w.costBefore, movesPerVM: float64(w.moves) / float64(len(w.live)), peakRSSMB: rss}, nil
}

func (w *react) close() {
	if w.c != nil {
		w.c.close()
	}
	w.d.stop()
	w.d = nil
}
