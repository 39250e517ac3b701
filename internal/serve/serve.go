package serve

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/control"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/obs"
	"github.com/score-dc/score/internal/shard"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// Errors surfaced by the daemon's submission path.
var (
	// ErrBacklogged is the backpressure verdict: the op queue stayed full
	// past the enqueue timeout, the operation was dropped and counted.
	ErrBacklogged = errors.New("serve: op queue full, operation dropped")
	// ErrClosed reports a submission against a daemon that has shut down.
	ErrClosed = errors.New("serve: daemon closed")
)

// TopologySpec names a topology constructively — unlike a built
// topology.Topology value it survives a snapshot/restore round trip.
type TopologySpec struct {
	// Kind selects the constructor: "fattree" or "canonical".
	Kind string `json:"kind"`
	// K and HostLinkMbps parameterize Kind "fattree".
	K            int     `json:"k,omitempty"`
	HostLinkMbps float64 `json:"host_link_mbps,omitempty"`
	// Canonical parameterizes Kind "canonical".
	Canonical *topology.CanonicalConfig `json:"canonical,omitempty"`
}

// Build constructs the named topology.
func (s TopologySpec) Build() (topology.Topology, error) {
	switch s.Kind {
	case "fattree":
		return topology.NewFatTree(s.K, s.HostLinkMbps)
	case "canonical":
		if s.Canonical == nil {
			return nil, errors.New("serve: canonical topology spec lacks config")
		}
		return topology.NewCanonicalTree(*s.Canonical)
	}
	return nil, fmt.Errorf("serve: unknown topology kind %q", s.Kind)
}

// Config assembles a daemon.
type Config struct {
	// Topology and Hosts define the managed plant. len(Hosts) must match
	// the topology's host count.
	Topology TopologySpec
	Hosts    []cluster.Host
	// MigrationCost is c_m (Theorem 1); the rest of the engine config
	// keeps core.DefaultConfig.
	MigrationCost float64
	// RoundInterval paces background scheduling rounds. Zero disables the
	// timer: rounds then run only when POST /v1/rounds (or Step) asks —
	// the deterministic mode the replay and snapshot tests rely on.
	RoundInterval time.Duration
	// IngestQueue bounds the op channel (default 256); EnqueueTimeout is
	// how long a submission blocks on a full queue before the daemon
	// drops it with ErrBacklogged (default 50ms).
	IngestQueue    int
	EnqueueTimeout time.Duration
	// HistoryRounds bounds the retained per-round summary ring
	// (default 1024).
	HistoryRounds int
	// Workers bounds the coordinator's worker pool; 0 means GOMAXPROCS.
	Workers int
	// FirstVMID seeds auto-issued VM IDs (default 1).
	FirstVMID cluster.VMID
	// SnapshotPath is the default target for POST /v1/snapshot.
	SnapshotPath string
	// Obs, when set, shares a registry with the embedding process;
	// nil builds a private one. Trace optionally records span events.
	Obs   *obs.Registry
	Trace *obs.Tracer
	// Audit, when set, receives one decision-provenance record per
	// merge/reconcile verdict and is served at /v1/audit.
	Audit *obs.AuditRing
	// Flight, when set, arms the anomaly-triggered flight recorder:
	// round-latency spikes, backpressure drops and cost increases each
	// capture a bundle into Flight.Dir, and POST /v1/flightrecorder
	// forces one.
	Flight *obs.FlightConfig
	// Logger receives operational events (backpressure drops, flight
	// captures); nil discards them.
	Logger *slog.Logger
}

func (cfg *Config) applyDefaults() {
	if cfg.IngestQueue <= 0 {
		cfg.IngestQueue = 256
	}
	if cfg.EnqueueTimeout <= 0 {
		cfg.EnqueueTimeout = 50 * time.Millisecond
	}
	if cfg.HistoryRounds <= 0 {
		cfg.HistoryRounds = 1024
	}
	if cfg.FirstVMID == 0 {
		cfg.FirstVMID = 1
	}
}

// RoundSummary is one completed round's record in the history ring.
type RoundSummary struct {
	Round         uint64  `json:"round"`
	Applied       int     `json:"applied"`
	CrossApplied  int     `json:"cross_applied"`
	Shards        int     `json:"shards"`
	Cost          float64 `json:"cost"`
	RealizedDelta float64 `json:"realized_delta"`
	UnixNano      int64   `json:"unix_nano"`
}

// StepResult reports a manual stepping request.
type StepResult struct {
	RoundsRun int     `json:"rounds_run"`
	Applied   int     `json:"applied"`
	Cost      float64 `json:"cost"`
	Quiesced  bool    `json:"quiesced"`
}

// AdmitRequest asks the daemon to register and place one VM.
type AdmitRequest struct {
	// ID is honored when HasID; otherwise the daemon issues the next
	// sequential ID that is free (see applyAdmit).
	ID              cluster.VMID
	HasID           bool
	RAMMB, CPUMilli int
	// Host pins the placement when HasHost; otherwise the daemon
	// best-fits onto the feasible host with the most free slots.
	Host    cluster.HostID
	HasHost bool
}

// RateSample is one observed VM-pair rate (sFlow-style): an absolute
// rate that replaces the pair's previous value; zero retires the pair.
type RateSample struct {
	A, B     cluster.VMID
	RateMbps float64
}

// ingest trace-event codes carried in obs.Event.Code for EvIngest.
const (
	ingestCodeObserve uint8 = iota + 1
)

// stepSafetyCap bounds a run-until-quiescent Step (S-CORE converges;
// this is defensive, not a knob).
const stepSafetyCap = 1024

// applyBatch caps how many queued ops one lock acquisition drains, so
// a full queue cannot hold the state lock indefinitely.
const applyBatch = 64

type opKind uint8

const (
	opAdmit opKind = iota + 1
	opRemove
	opRespec
	opObserve
	opStep
	opSnapshot
)

type op struct {
	kind           opKind
	admit          AdmitRequest
	vm             cluster.VMID
	ram, cpu       int
	hasRAM, hasCPU bool
	samples        []RateSample
	steps          int
	path           string
	enq            time.Time // when submit enqueued the op (queue-wait metric)
	done           chan opResult
}

type opResult struct {
	err               error
	id                cluster.VMID
	host              cluster.HostID
	applied, rejected int
	step              StepResult
	path              string
	// queued: submit gave up on an op that may still sit in the queue, for
	// Close's drain to answer — what the op points at is not the caller's
	// to reuse.
	queued bool
}

type serveMetrics struct {
	ingestBatches  *obs.Counter
	ingestSamples  *obs.Counter
	ingestRejected *obs.Counter
	backpressure   *obs.Counter
	admits         *obs.Counter
	removes        *obs.Counter
	respecs        *obs.Counter
	opErrors       *obs.Counter
	vms            *obs.Gauge
	pairs          *obs.Gauge
	cost           *obs.Gauge
	trafficStats   func(*traffic.Matrix) uint64 // control.TrafficSampler
	decodeLatency  *obs.Histogram
	decodeFallback *obs.Counter
	foldLatency    *obs.Histogram
	opQueueDepth   *obs.Histogram
	opWait         *obs.Histogram
}

// opQueueBuckets covers the op-queue occupancy range (default cap 256).
var opQueueBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

func newServeMetrics(reg *obs.Registry) serveMetrics {
	return serveMetrics{
		ingestBatches:  reg.Counter("score_ingest_batches_total", "Observation batches applied by the resident service."),
		ingestSamples:  reg.Counter("score_ingest_samples_total", "Rate samples folded into the traffic matrix."),
		ingestRejected: reg.Counter("score_ingest_samples_rejected_total", "Rate samples rejected (self-pair, bad rate, or unplaced endpoint)."),
		backpressure:   reg.Counter("score_ingest_backpressure_total", "Operations dropped because the op queue stayed full past the enqueue timeout."),
		admits:         reg.Counter("score_vm_admits_total", "VMs admitted and placed."),
		removes:        reg.Counter("score_vm_removes_total", "VMs removed."),
		respecs:        reg.Counter("score_vm_respecs_total", "VM resource re-specifications applied."),
		opErrors:       reg.Counter("score_op_errors_total", "Operations that failed validation or capacity checks."),
		vms:            reg.Gauge("score_service_vms", "VMs currently registered with the resident service."),
		pairs:          reg.Gauge("score_service_pairs", "Communicating VM pairs currently tracked."),
		cost:           control.CostGauge(reg),
		trafficStats:   control.TrafficSampler(reg),
		decodeLatency:  reg.Histogram("score_ingest_decode_seconds", "Time to decode one POST /v1/observe body, once read, into samples.", obs.DefLatencyBuckets),
		decodeFallback: reg.Counter("score_ingest_decode_fallback_total", "Observe bodies the one-pass scanner declined and encoding/json decoded or refused."),
		foldLatency:    reg.Histogram("score_ingest_fold_seconds", "Time to fold one observation batch into the traffic matrix.", obs.DefLatencyBuckets),
		opQueueDepth:   reg.Histogram("score_op_queue_depth", "Op-queue occupancy sampled at each submission.", opQueueBuckets),
		opWait:         reg.Histogram("score_op_wait_seconds", "Time an op spent queued before the state loop applied it.", obs.DefLatencyBuckets),
	}
}

// Daemon is the resident placement service: it owns a live cluster +
// traffic matrix and the scheduling plant built on them, serializes all
// mutations through one state-loop goroutine, and (when RoundInterval
// is set) runs auto-tuned scheduling rounds in the background.
type Daemon struct {
	cfg    Config
	topo   topology.Topology
	reg    *obs.Registry
	tr     *obs.Tracer
	ar     *obs.AuditRing
	flight *obs.FlightRecorder
	log    *slog.Logger

	// mu guards the plant. The state loop takes the write lock for every
	// op batch and round; read-only HTTP handlers take the read lock and
	// touch only genuinely non-mutating accessors (engine queries fold
	// lazy accounting and are reserved for the loop).
	mu    sync.RWMutex
	cl    *cluster.Cluster
	tm    *traffic.Matrix
	eng   *core.Engine
	ctrl  *control.Controller
	coord *shard.Coordinator

	// nextID is the auto-issue cursor, see applyAdmit.
	nextID   cluster.VMID
	dirty    bool // state changed since the last round started
	quiesced bool // last round applied zero migrations
	lastCost float64

	histMu    sync.Mutex
	hist      []RoundSummary
	histHead  int // ring write position
	histCount int

	ops  chan *op
	stop chan struct{}
	done chan struct{}

	closeOnce  sync.Once
	detachCtrl func()

	m serveMetrics
}

// New builds a daemon with an empty cluster and starts its state loop.
func New(cfg Config) (*Daemon, error) {
	topo, err := cfg.Topology.Build()
	if err != nil {
		return nil, err
	}
	if len(cfg.Hosts) != topo.Hosts() {
		return nil, fmt.Errorf("serve: %d hosts for a %d-host topology", len(cfg.Hosts), topo.Hosts())
	}
	cl, err := cluster.New(cfg.Hosts)
	if err != nil {
		return nil, err
	}
	return newDaemon(cfg, topo, cl, traffic.NewMatrix(), nil)
}

// newDaemon wires the scheduling plant around a (possibly pre-populated)
// cluster and matrix and starts the state loop.
func newDaemon(cfg Config, topo topology.Topology, cl *cluster.Cluster, tm *traffic.Matrix, snap *snapshotFile) (*Daemon, error) {
	cfg.applyDefaults()
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	engCfg := core.DefaultConfig()
	engCfg.MigrationCost = cfg.MigrationCost
	costModel, err := core.NewCostModel(core.PaperWeights()...)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(topo, costModel, cl, tm, engCfg)
	if err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctrl := control.New(topo, control.Config{Metrics: control.NewMetrics(reg)})
	detach := ctrl.Bind(tm, cl)
	shardMetrics := shard.NewMetrics(reg)
	coord, err := shard.NewCoordinator(eng, shard.Config{
		Tuner:   ctrl,
		Workers: cfg.Workers,
		Metrics: shardMetrics,
		Trace:   cfg.Trace,
		Audit:   cfg.Audit,
	})
	if err != nil {
		detach()
		eng.Detach()
		return nil, err
	}
	d := &Daemon{
		cfg:        cfg,
		topo:       topo,
		reg:        reg,
		tr:         cfg.Trace,
		ar:         cfg.Audit,
		log:        logger,
		cl:         cl,
		tm:         tm,
		eng:        eng,
		ctrl:       ctrl,
		coord:      coord,
		nextID:     cfg.FirstVMID,
		dirty:      cl.NumVMs() > 0,
		hist:       make([]RoundSummary, cfg.HistoryRounds),
		ops:        make(chan *op, cfg.IngestQueue),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		detachCtrl: detach,
		m:          newServeMetrics(reg),
	}
	if snap != nil {
		ctrl.RestorePersisted(snap.Controller)
		coord.SetRounds(snap.Rounds)
		d.nextID = cluster.VMID(snap.NextID)
	}
	if cfg.Flight != nil {
		fcfg := *cfg.Flight
		if fcfg.Logger == nil {
			fcfg.Logger = logger
		}
		fr, err := obs.NewFlightRecorder(fcfg, reg, cfg.Trace, cfg.Audit)
		if err != nil {
			detach()
			eng.Detach()
			return nil, err
		}
		// The three anomalies the ISSUE of record calls out: a round
		// suddenly slower than its own history, backpressure drops, and
		// total cost rising (S-CORE rounds only lower it; a rise means
		// ingest shifted the plant under the scheduler).
		fr.WatchHistogramEWMA("round_latency", shardMetrics.RoundLatency, 3, 5)
		fr.WatchCounterIncrease("backpressure", d.m.backpressure)
		fr.WatchGaugeIncrease("cost_increase", d.m.cost, 1e-9)
		fr.Start()
		d.flight = fr
	}
	d.lastCost = eng.TotalCost()
	d.m.cost.Set(d.lastCost)
	d.m.vms.Set(float64(cl.NumVMs()))
	d.m.pairs.Set(float64(tm.NumPairs()))
	d.m.trafficStats(tm)
	go d.loop()
	return d, nil
}

// Registry returns the daemon's metrics registry.
func (d *Daemon) Registry() *obs.Registry { return d.reg }

// Rounds reports how many scheduling rounds have completed.
func (d *Daemon) Rounds() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.coord.Rounds()
}

// Close stops the state loop, fails any raced-in submissions with
// ErrClosed, and detaches the plant. Safe to call more than once.
func (d *Daemon) Close() error {
	d.closeOnce.Do(func() {
		close(d.stop)
		<-d.done
		if d.flight != nil {
			d.flight.Close()
		}
		for {
			select {
			case o := <-d.ops:
				o.done <- opResult{err: ErrClosed}
			default:
				d.detachCtrl()
				d.eng.Detach()
				return
			}
		}
	})
	<-d.done
	return nil
}

// loop is the single goroutine that owns every state mutation.
func (d *Daemon) loop() {
	defer close(d.done)
	var tickC <-chan time.Time
	if d.cfg.RoundInterval > 0 {
		t := time.NewTicker(d.cfg.RoundInterval)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case <-d.stop:
			return
		case o := <-d.ops:
			d.mu.Lock()
			d.apply(o)
		drain:
			for n := 1; n < applyBatch; n++ {
				select {
				case o2 := <-d.ops:
					d.apply(o2)
				default:
					break drain
				}
			}
			d.mu.Unlock()
		case <-tickC:
			d.mu.Lock()
			if d.cl.NumVMs() > 0 && (d.dirty || !d.quiesced) {
				d.runRoundLocked()
			}
			d.mu.Unlock()
		}
	}
}

// submit enqueues one op with the backpressure contract: a fast path
// when the queue has room, a bounded wait when it is full, then drop.
func (d *Daemon) submit(o *op) opResult {
	o.done = make(chan opResult, 1)
	o.enq = time.Now()
	d.m.opQueueDepth.Observe(float64(len(d.ops)))
	select {
	case <-d.stop:
		return opResult{err: ErrClosed}
	default:
	}
	select {
	case d.ops <- o:
	default:
		t := time.NewTimer(d.cfg.EnqueueTimeout)
		select {
		case d.ops <- o:
			t.Stop()
		case <-t.C:
			d.m.backpressure.Inc()
			d.log.Warn("op dropped under backpressure", "kind", o.kind, "queue", len(d.ops))
			return opResult{err: ErrBacklogged}
		case <-d.stop:
			t.Stop()
			return opResult{err: ErrClosed}
		}
	}
	select {
	case res := <-o.done:
		return res
	case <-d.done:
		// The loop exited; Close's drain may still answer this op.
		select {
		case res := <-o.done:
			return res
		default:
			return opResult{err: ErrClosed, queued: true}
		}
	}
}

func (d *Daemon) apply(o *op) {
	d.m.opWait.Observe(time.Since(o.enq).Seconds())
	var res opResult
	switch o.kind {
	case opAdmit:
		res = d.applyAdmit(o)
	case opRemove:
		res = d.applyRemove(o)
	case opRespec:
		res = d.applyRespec(o)
	case opObserve:
		res = d.applyObserve(o)
	case opStep:
		res = d.applyStep(o)
	case opSnapshot:
		res = d.applySnapshot(o)
	default:
		res = opResult{err: fmt.Errorf("serve: unknown op kind %d", o.kind)}
	}
	if res.err != nil {
		d.m.opErrors.Inc()
	}
	o.done <- res
}

// bestFitHost picks the feasible host with the most free slots (lowest
// ID on ties) — the load-balancing seed placement of Section VI.
func (d *Daemon) bestFitHost(vm cluster.VMID) cluster.HostID {
	best, bestFree := cluster.NoHost, -1
	for h := 0; h < d.cl.NumHosts(); h++ {
		id := cluster.HostID(h)
		if !d.cl.Fits(vm, id) {
			continue
		}
		if free := d.cl.FreeSlots(id); free > bestFree {
			best, bestFree = id, free
		}
	}
	return best
}

// freeIDFrom returns the first unregistered VM ID at or after id.
func (d *Daemon) freeIDFrom(id cluster.VMID) cluster.VMID {
	for ; ; id++ {
		if _, _, taken := d.cl.Demand(id); !taken {
			return id
		}
	}
}

// applyAdmit registers and places one VM. Without a pinned ID it takes
// the first free one from the cursor nextID on. The cluster refuses that
// ID once a long-lived VM holds the low end of the ID window while
// issuance has marched a full window width past it; a refusal is for IDs
// a client pinned, so the cursor then recycles — wraps to the lowest free
// ID of the window — the way the paper's 32-bit space is walked "before
// recycling" (Section V-B2). The scan is the window's width, once per
// trip across it.
func (d *Daemon) applyAdmit(o *op) opResult {
	req := o.admit
	vm := cluster.VM{ID: req.ID, RAMMB: req.RAMMB, CPUMilli: req.CPUMilli}
	if !req.HasID {
		vm.ID = d.freeIDFrom(d.nextID)
	}
	err := d.cl.AddVM(vm)
	if !req.HasID && errors.Is(err, cluster.ErrIDOutsideWindow) {
		base, _ := d.cl.DenseAlloc()
		vm.ID = d.freeIDFrom(base)
		err = d.cl.AddVM(vm)
	}
	if err != nil {
		return opResult{err: err}
	}
	id := vm.ID
	host := req.Host
	if !req.HasHost {
		host = d.bestFitHost(id)
		if host == cluster.NoHost {
			d.cl.Remove(id)
			return opResult{err: fmt.Errorf("%w: no host fits VM %d", cluster.ErrNoCapacity, id)}
		}
	}
	if err := d.cl.Place(id, host); err != nil {
		d.cl.Remove(id)
		return opResult{err: err}
	}
	if !req.HasID || id >= d.nextID {
		d.nextID = id + 1
	}
	d.dirty = true
	d.m.admits.Inc()
	d.m.vms.Set(float64(d.cl.NumVMs()))
	return opResult{id: id, host: host}
}

func (d *Daemon) applyRemove(o *op) opResult {
	// Clear the VM's traffic row before unplacing it: the matrix logs
	// one removal per pair, and with the VM still placed every observer
	// folds those deltas at its current rack. Only then does the cluster
	// removal fire the placement-change hooks.
	d.tm.ClearVM(o.vm)
	if err := d.cl.Remove(o.vm); err != nil {
		return opResult{err: err}
	}
	d.dirty = true
	d.m.removes.Inc()
	d.m.vms.Set(float64(d.cl.NumVMs()))
	d.m.pairs.Set(float64(d.tm.NumPairs()))
	return opResult{id: o.vm}
}

func (d *Daemon) applyRespec(o *op) opResult {
	ram, cpu, err := d.demandOf(o.vm)
	if err != nil {
		return opResult{err: err}
	}
	if o.hasRAM {
		ram = o.ram
	}
	if o.hasCPU {
		cpu = o.cpu
	}
	if err := d.cl.Respec(o.vm, ram, cpu); err != nil {
		return opResult{err: err}
	}
	// A shrink can unlock migrations a capacity probe rejected before.
	d.dirty = true
	d.m.respecs.Inc()
	return opResult{id: o.vm, host: d.cl.HostOf(o.vm)}
}

func (d *Daemon) demandOf(vm cluster.VMID) (ram, cpu int, err error) {
	v, err := d.cl.VM(vm)
	if err != nil {
		return 0, 0, err
	}
	return v.RAMMB, v.CPUMilli, nil
}

// maxRateMbps is the ceiling of traffic's rate grid. The matrix would
// store anything above it as the ceiling itself; a sample claiming more
// than 4 Pb/s between two VMs is a fault to report, not a rate to fold.
const maxRateMbps = 1 << 32

// sampleFault says why λ(a, b) = rate may not be folded into the traffic
// matrix, "" when it may: the one rule for rates arriving from outside
// the program, per observe sample and per snapshot pair. Endpoints must
// be VMs the cluster has placed — which is also what keeps the matrix's
// row window inside the cluster's ID window.
func sampleFault(cl *cluster.Cluster, a, b cluster.VMID, rate float64) string {
	switch {
	case a == b:
		return "self-pair"
	case !(rate >= 0 && rate <= maxRateMbps): // NaN fails both
		return "negative, non-finite or out-of-range rate"
	case cl.HostOf(a) == cluster.NoHost || cl.HostOf(b) == cluster.NoHost:
		return "unknown or unplaced endpoint"
	}
	return ""
}

func (d *Daemon) applyObserve(o *op) opResult {
	t0 := time.Now()
	applied, rejected := 0, 0
	for _, s := range o.samples {
		if sampleFault(d.cl, s.A, s.B, s.RateMbps) != "" {
			rejected++
			continue
		}
		d.tm.Set(s.A, s.B, s.RateMbps)
		applied++
	}
	if applied > 0 {
		d.dirty = true
		d.m.pairs.Set(float64(d.tm.NumPairs()))
	}
	d.m.ingestBatches.Inc()
	d.m.ingestSamples.Add(uint64(applied))
	d.m.ingestRejected.Add(uint64(rejected))
	d.m.foldLatency.Observe(time.Since(t0).Seconds())
	if d.tr != nil {
		d.tr.Record(obs.Event{
			Kind:  obs.EvIngest,
			Round: uint32(d.coord.Rounds()),
			Shard: -1,
			Arg:   int64(applied),
			Code:  ingestCodeObserve,
		})
	}
	return opResult{applied: applied, rejected: rejected}
}

func (d *Daemon) applyStep(o *op) opResult {
	if d.cl.NumVMs() == 0 {
		return opResult{step: StepResult{Cost: d.lastCost, Quiesced: true}}
	}
	n, untilQuiesce := o.steps, o.steps <= 0
	if untilQuiesce {
		n = stepSafetyCap
	}
	var st StepResult
	for i := 0; i < n; i++ {
		sum, err := d.runRoundLocked()
		if err != nil {
			return opResult{err: err}
		}
		st.RoundsRun++
		st.Applied += sum.Applied
		if untilQuiesce && sum.Applied == 0 {
			break
		}
	}
	st.Cost = d.lastCost
	st.Quiesced = d.quiesced
	return opResult{step: st}
}

func (d *Daemon) applySnapshot(o *op) opResult {
	path := o.path
	if path == "" {
		path = d.cfg.SnapshotPath
	}
	if path == "" {
		return opResult{err: errors.New("serve: no snapshot path configured")}
	}
	if err := d.writeSnapshotLocked(path); err != nil {
		return opResult{err: err}
	}
	d.m.trafficStats(d.tm)
	return opResult{path: path}
}

// runRoundLocked runs one coordinator round and records its summary.
func (d *Daemon) runRoundLocked() (RoundSummary, error) {
	d.dirty = false
	res, err := d.coord.RunRound()
	if err != nil {
		d.m.opErrors.Inc()
		return RoundSummary{}, err
	}
	cost := d.eng.TotalCost()
	d.lastCost = cost
	d.m.cost.Set(cost)
	d.m.trafficStats(d.tm)
	d.quiesced = len(res.Applied) == 0
	sum := RoundSummary{
		Round:         d.coord.Rounds(),
		Applied:       len(res.Applied),
		CrossApplied:  res.CrossApplied,
		Shards:        len(res.Shards),
		Cost:          cost,
		RealizedDelta: res.RealizedDelta,
		UnixNano:      time.Now().UnixNano(),
	}
	d.histMu.Lock()
	d.hist[d.histHead] = sum
	d.histHead = (d.histHead + 1) % len(d.hist)
	if d.histCount < len(d.hist) {
		d.histCount++
	}
	d.histMu.Unlock()
	return sum, nil
}

// History returns the retained round summaries, oldest first.
func (d *Daemon) History() []RoundSummary {
	d.histMu.Lock()
	defer d.histMu.Unlock()
	out := make([]RoundSummary, 0, d.histCount)
	start := d.histHead - d.histCount
	if start < 0 {
		start += len(d.hist)
	}
	for i := 0; i < d.histCount; i++ {
		out = append(out, d.hist[(start+i)%len(d.hist)])
	}
	return out
}

// Admit registers and places one VM.
func (d *Daemon) Admit(req AdmitRequest) (cluster.VMID, cluster.HostID, error) {
	res := d.submit(&op{kind: opAdmit, admit: req})
	return res.id, res.host, res.err
}

// RemoveVM retires a VM: its traffic row is cleared, then it is
// unplaced and unregistered.
func (d *Daemon) RemoveVM(vm cluster.VMID) error {
	return d.submit(&op{kind: opRemove, vm: vm}).err
}

// Respec updates a VM's resource demand in place; nil fields keep the
// current value.
func (d *Daemon) Respec(vm cluster.VMID, ramMB, cpuMilli *int) error {
	o := &op{kind: opRespec, vm: vm}
	if ramMB != nil {
		o.ram, o.hasRAM = *ramMB, true
	}
	if cpuMilli != nil {
		o.cpu, o.hasCPU = *cpuMilli, true
	}
	return d.submit(o).err
}

// Observe folds one batch of rate samples into the traffic matrix. It
// reports how many samples were applied and how many were rejected
// (self-pairs, negative, non-finite or out-of-range rates, unplaced
// endpoints); err is non-nil only when the whole batch was dropped
// (backpressure or shutdown). source names the reporter on the wire; the
// daemon keeps no per-source state.
func (d *Daemon) Observe(source string, samples []RateSample) (applied, rejected int, err error) {
	res := d.submit(&op{kind: opObserve, samples: samples})
	return res.applied, res.rejected, res.err
}

// Step runs n scheduling rounds synchronously; n <= 0 means run until a
// round applies no migration.
func (d *Daemon) Step(n int) (StepResult, error) {
	res := d.submit(&op{kind: opStep, steps: n})
	return res.step, res.err
}

// Snapshot serializes the daemon's state to path (the configured
// SnapshotPath when empty) and returns the path written.
func (d *Daemon) Snapshot(path string) (string, error) {
	res := d.submit(&op{kind: opSnapshot, path: path})
	return res.path, res.err
}

// PlacementSnapshot returns the current VM → host allocation.
func (d *Daemon) PlacementSnapshot() map[cluster.VMID]cluster.HostID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.cl.Snapshot()
}
