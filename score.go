// Package score is the public API of the S-CORE library, a reproduction
// of "Scalable Traffic-Aware Virtual Machine Management for Cloud Data
// Centers" (Tso, Oikonomou, Kavvadia, Pezaros — IEEE ICDCS 2014).
//
// S-CORE reduces the network-wide communication cost of a data center by
// migrating VMs toward their traffic peers. Each VM pair (u, v) with
// average rate λ(u, v) communicating across hierarchy level ℓ costs
// 2·λ·Σ_{i≤ℓ} c_i, where c_i are per-level link weights (c1 < c2 < c3).
// A token serializes decisions: the holding VM migrates iff the locally
// computable cost reduction ΔC exceeds the migration cost c_m
// (Theorem 1), then forwards the token by a pluggable policy
// (Round-Robin or Highest-Level First).
//
// The package re-exports the library's building blocks:
//
//   - topologies (canonical tree, fat-tree) and clusters of hosts/VMs
//   - traffic matrices and the hotspot workload generator
//   - the cost model and migration decision engine
//   - token policies and the discrete-event simulation runner
//   - the GA and Remedy baselines and the pre-copy migration model
//
// A minimal run:
//
//	topo, _ := score.NewCanonicalTree(score.ScaledCanonicalConfig(16, 5))
//	cl, _ := score.NewCluster(score.UniformHosts(topo.Hosts(), 8, 32768, 1000))
//	pm := score.NewPlacementManager(cl, 1)
//	for i := 0; i < topo.Hosts()*4; i++ {
//		pm.CreateVM(1024)
//	}
//	rng := rand.New(rand.NewSource(1))
//	pm.PlaceRandom(rng)
//	tm, _ := score.GenerateTraffic(score.DefaultGenConfig(topo.Racks()), topo, cl, rng)
//	cost, _ := score.NewCostModel(score.PaperWeights()...)
//	eng, _ := score.NewEngine(topo, cost, cl, tm, score.DefaultEngineConfig())
//	runner, _ := score.NewRunner(eng, score.HighestLevelFirst{}, score.DefaultSimConfig(), rng)
//	metrics, _ := runner.Run()
package score

import (
	"math/rand"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/control"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/ga"
	"github.com/score-dc/score/internal/migration"
	"github.com/score-dc/score/internal/netsim"
	"github.com/score-dc/score/internal/remedy"
	"github.com/score-dc/score/internal/shard"
	"github.com/score-dc/score/internal/sim"
	"github.com/score-dc/score/internal/stats"
	"github.com/score-dc/score/internal/token"
	"github.com/score-dc/score/internal/topology"
	"github.com/score-dc/score/internal/traffic"
)

// Cluster substrate: servers, VMs, allocations (paper Section II).
type (
	// VMID is a VM's unique 32-bit identifier.
	VMID = cluster.VMID
	// HostID identifies a physical server.
	HostID = cluster.HostID
	// VM describes a virtual machine.
	VM = cluster.VM
	// Host describes a physical server.
	Host = cluster.Host
	// Cluster binds hosts, VMs, and the current allocation.
	Cluster = cluster.Cluster
	// PlacementManager issues VM IDs and initial placements.
	PlacementManager = cluster.PlacementManager
)

// NoHost marks an unplaced VM.
const NoHost = cluster.NoHost

// NewCluster creates a cluster over dense-ID hosts.
func NewCluster(hosts []Host) (*Cluster, error) { return cluster.New(hosts) }

// UniformHosts builds n identical host descriptions.
func UniformHosts(n, slots, ramMB int, nicMbps float64) []Host {
	return cluster.UniformHosts(n, slots, ramMB, nicMbps)
}

// NewPlacementManager wraps a cluster with ID issuance and placement.
func NewPlacementManager(c *Cluster, firstID VMID) *PlacementManager {
	return cluster.NewPlacementManager(c, firstID)
}

// Topologies (paper Section II, Fig. 1).
type (
	// Topology is the level structure and link routing of a DC network.
	Topology = topology.Topology
	// CanonicalTree is the oversubscribed layered tree of Fig. 1a.
	CanonicalTree = topology.CanonicalTree
	// FatTree is the k-ary fat-tree of Fig. 1b.
	FatTree = topology.FatTree
	// CanonicalConfig parameterizes a canonical tree.
	CanonicalConfig = topology.CanonicalConfig
	// Link is one physical link with level and capacity.
	Link = topology.Link
	// LinkID indexes links.
	LinkID = topology.LinkID
)

// NewCanonicalTree builds a canonical tree topology.
func NewCanonicalTree(cfg CanonicalConfig) (*CanonicalTree, error) {
	return topology.NewCanonicalTree(cfg)
}

// NewFatTree builds a k-ary fat-tree topology.
func NewFatTree(k int, hostLinkMbps float64) (*FatTree, error) {
	return topology.NewFatTree(k, hostLinkMbps)
}

// PaperCanonicalConfig returns the paper's 2560-host canonical tree.
func PaperCanonicalConfig() CanonicalConfig { return topology.PaperCanonicalConfig() }

// ScaledCanonicalConfig returns a shape-preserving scaled-down tree.
func ScaledCanonicalConfig(racks, hostsPerRack int) CanonicalConfig {
	return topology.ScaledCanonicalConfig(racks, hostsPerRack)
}

// Traffic model (paper Section III, VI).
type (
	// TrafficMatrix is the sparse symmetric pairwise λ(u, v) matrix,
	// stored as per-VM sorted adjacency rows (see traffic.Matrix for the
	// layout and slice-ownership rules).
	TrafficMatrix = traffic.Matrix
	// TrafficEdge is one adjacency entry: peer VM and rate in Mb/s.
	// TrafficMatrix.NeighborEdges returns rows of these without copying.
	TrafficEdge = traffic.Edge
	// GenConfig tunes the hotspot workload generator.
	GenConfig = traffic.GenConfig
)

// NewTrafficMatrix returns an empty matrix.
func NewTrafficMatrix() *TrafficMatrix { return traffic.NewMatrix() }

// DefaultGenConfig returns measurement-study-shaped generator defaults.
func DefaultGenConfig(racks int) GenConfig { return traffic.DefaultGenConfig(racks) }

// GenerateTraffic synthesizes a hotspot traffic matrix over placed VMs.
func GenerateTraffic(cfg GenConfig, topo Topology, c *Cluster, rng *rand.Rand) (*TrafficMatrix, error) {
	return traffic.Generate(cfg, topo, c, rng)
}

// TorMatrix aggregates pairwise rates into the rack-level heatmap of
// Fig. 3a–c.
func TorMatrix(m *TrafficMatrix, topo Topology, c *Cluster) [][]float64 {
	return traffic.TorMatrix(m, topo, c)
}

// Cost model and decision engine (paper Sections II–IV).
type (
	// CostModel holds the per-level link weights c_i.
	CostModel = core.CostModel
	// Engine evaluates S-CORE migration decisions.
	Engine = core.Engine
	// EngineConfig tunes Theorem 1's c_m and the admission checks.
	EngineConfig = core.Config
	// Decision is a recommended migration with its ΔC.
	Decision = core.Decision
	// EngineView is a shard-scoped decision view over an engine
	// (Engine.NewView): private scratch and staged-move overlay, safe
	// for concurrent use against a frozen cluster.
	EngineView = core.AllocView
)

// NewCostModel builds a cost model from per-level weights.
func NewCostModel(weights ...float64) (CostModel, error) { return core.NewCostModel(weights...) }

// PaperWeights returns the paper's exponential weights [1, e, e³].
func PaperWeights() []float64 { return core.PaperWeights() }

// DefaultEngineConfig returns the simulation defaults (c_m = 0, 90%
// bandwidth admission threshold).
func DefaultEngineConfig() EngineConfig { return core.DefaultConfig() }

// NewEngine assembles a migration decision engine.
func NewEngine(topo Topology, cost CostModel, cl *Cluster, tm *TrafficMatrix, cfg EngineConfig) (*Engine, error) {
	return core.NewEngine(topo, cost, cl, tm, cfg)
}

// Token policies (paper Section V-A).
type (
	// Token is the circulating migration token.
	Token = token.Token
	// TokenPolicy selects the next token holder.
	TokenPolicy = token.Policy
	// HolderView is the token holder's local knowledge fed to policies.
	HolderView = token.HolderView
	// RoundRobin passes the token in ascending VM-ID order.
	RoundRobin = token.RoundRobin
	// HighestLevelFirst implements Algorithm 1.
	HighestLevelFirst = token.HighestLevelFirst
	// RandomPolicy jumps to a uniformly random VM (tech-report family).
	RandomPolicy = token.Random
	// LowestLevelFirst is the ablation mirror of HLF.
	LowestLevelFirst = token.LowestLevelFirst
)

// NewToken builds a token over the given VM IDs with zeroed levels.
func NewToken(ids []VMID) *Token { return token.New(ids) }

// PolicyByName resolves "rr", "hlf", "llf", or "random".
func PolicyByName(name string, rng *rand.Rand) (TokenPolicy, error) {
	return token.ByName(name, rng)
}

// Simulation (paper Section VI).
type (
	// SimConfig tunes a simulated S-CORE run.
	SimConfig = sim.Config
	// Runner executes one S-CORE simulation.
	Runner = sim.Runner
	// Metrics aggregates a run's observables.
	Metrics = sim.Metrics
	// RemedySimConfig tunes a Remedy comparison run.
	RemedySimConfig = sim.RemedyConfig
	// DESEngine is the discrete-event scheduler.
	DESEngine = netsim.Engine
	// Network tracks per-link offered load.
	Network = netsim.Network
)

// Sharded token scheduling (a deliberate deviation from the paper's
// single token: topology-aligned shards run concurrent rings whose
// results merge through a deterministic reconciliation pass; see
// internal/shard).
type (
	// ShardGranularity aligns shard boundaries to pods or racks.
	ShardGranularity = shard.Granularity
	// ShardConfig tunes a standalone sharded scheduler. Its NewPolicy
	// selects nothing: a round walks each ring once in ascending ID
	// order — the rings are rebuilt every round, so no token carries
	// the history a TokenPolicy prioritises with. RoundRobin and
	// HighestLevelFirst are accepted (both yield that order on a fresh
	// pass), RandomPolicy and LowestLevelFirst refused; all four run on
	// the Runner's single token.
	ShardConfig = shard.Config
	// ShardCoordinator drives sharded token rounds against an engine.
	ShardCoordinator = shard.Coordinator
	// ShardRoundResult summarizes one partition/rings/merge cycle.
	ShardRoundResult = shard.Round
	// ShardStats is the per-shard rollup in sharded Metrics.
	ShardStats = sim.ShardStats
	// WorkerPool is the bounded deterministic fan-out pool shared by
	// the sharded scheduler and the parallel GA.
	WorkerPool = shard.Pool
)

// Shard alignment units.
const (
	ShardByPod  = shard.ByPod
	ShardByRack = shard.ByRack
)

// NewShardCoordinator binds a sharded scheduler to an engine. Most
// callers instead set SimConfig.Shards > 1 and use the Runner.
func NewShardCoordinator(eng *Engine, cfg ShardConfig) (*ShardCoordinator, error) {
	return shard.NewCoordinator(eng, cfg)
}

// ParseShardGranularity resolves "pod" or "rack".
func ParseShardGranularity(s string) (ShardGranularity, error) {
	return shard.ParseGranularity(s)
}

// Adaptive control plane (internal/control): a deterministic feedback
// controller deriving shard count/granularity from the traffic matrix's
// locality sums and pod-pair rates. Most callers instead set
// SimConfig.AutoTune.
type (
	// Controller implements ShardConfig.Tuner for both decision planes.
	Controller = control.Controller
	// ControlConfig tunes a Controller.
	ControlConfig = control.Config
)

// NewController builds a controller for a topology; Bind attaches the
// traffic matrix and cluster it measures.
func NewController(topo Topology, cfg ControlConfig) *Controller {
	return control.New(topo, cfg)
}

// NewWorkerPool returns a pool of at most workers concurrent tasks
// (0 = GOMAXPROCS).
func NewWorkerPool(workers int) *WorkerPool { return shard.NewPool(workers) }

// DefaultSimConfig returns Fig. 3-style run parameters.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// NewRunner assembles a simulated S-CORE run.
func NewRunner(eng *Engine, pol TokenPolicy, cfg SimConfig, rng *rand.Rand) (*Runner, error) {
	return sim.NewRunner(eng, pol, cfg, rng)
}

// RunRemedy executes the centralized Remedy baseline over the engine's
// cluster.
func RunRemedy(eng *Engine, cfg RemedySimConfig, rng *rand.Rand) (*Metrics, error) {
	return sim.RunRemedy(eng, cfg, rng)
}

// DefaultRemedySimConfig mirrors the paper's comparison setup.
func DefaultRemedySimConfig() RemedySimConfig { return sim.DefaultRemedyConfig() }

// NewNetwork creates a link-load tracker over a topology.
func NewNetwork(topo Topology) *Network { return netsim.NewNetwork(topo) }

// Baselines (paper Section VI-A, VI-B).
type (
	// GAConfig tunes the genetic-algorithm baseline.
	GAConfig = ga.Config
	// GAResult is the GA outcome.
	GAResult = ga.Result
	// RemedyConfig tunes the Remedy controller.
	RemedyConfig = remedy.Config
	// RemedyController is the centralized Remedy loop.
	RemedyController = remedy.Controller
)

// DefaultGAConfig returns laptop-scale GA parameters.
func DefaultGAConfig() GAConfig { return ga.DefaultConfig() }

// OptimizeGA computes the centralized approximate-optimal allocation.
func OptimizeGA(eng *Engine, cfg GAConfig, rng *rand.Rand) (GAResult, error) {
	return ga.Optimize(eng, cfg, rng)
}

// Live-migration model (paper Section VI-C).
type (
	// MigrationModel parameterizes Xen-style pre-copy migration.
	MigrationModel = migration.Model
	// MigrationWorkload describes a migrating VM's memory behaviour.
	MigrationWorkload = migration.Workload
	// MigrationResult summarizes one modeled migration.
	MigrationResult = migration.Result
)

// DefaultMigrationModel returns the Fig. 5 calibration.
func DefaultMigrationModel() MigrationModel { return migration.DefaultModel() }

// Statistics helpers used by the evaluation outputs.
type (
	// CDF is an empirical distribution (Fig. 4a).
	CDF = stats.CDF
	// TimeSeries is an append-only (t, v) series (Fig. 3d–i).
	TimeSeries = stats.TimeSeries
)

// NewCDF builds an empirical CDF from samples.
func NewCDF(samples []float64) *CDF { return stats.NewCDF(samples) }
