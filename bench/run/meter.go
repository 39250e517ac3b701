package main

import (
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/score-dc/score/bench/stat"
)

// The reference host does not hold its speed: its two vCPUs share cores
// with other tenants, and whenever a neighbour is busy — bursts of a
// second or two on a quiet day, most of the time on a busy one — the
// same work takes 1.3–1.6× as long. Raw times of identical runs
// therefore spread 15–50 %, more than any bound could carry. So every
// time the benchmark reports is speed-adjusted: a fixed reference kernel
// is timed in short blocks between the ops, all through set-up and the
// timed phase, and every stretch of measured time is divided by how
// much slower than nominal the blocks on either side of it ran. The
// result reads as seconds on the quiet reference host, and the raw times
// are kept in the result's notes.
//
// The kernel is deliberately not a model of the program: it is a few
// independent integer chains over a table that fits the L1 cache, i.e.
// code with a high instruction rate, which is what a busy sibling
// hardware thread slows most — and what the program's own decision
// loop, JSON decoder and event loop are made of. Timed beside k=24
// rounds, paper Runs and JSON decoding for an hour, it slowed down when
// they did, one for one (log-log slope 0.93–1.15), and op ÷ kernel over
// 60 s windows spread 5 % where the raw op times spread 12–17 %. A
// dependent single chain did not move at all; pointer chases through
// L2-, L3- and DRAM-sized tables and a memory copy wandered on their
// own; the same loop over a 512 KiB or 2 MiB table tracked no better.

const (
	// refIters sizes one reference block: ≈10 ms on the quiet host.
	refIters = 2_500_000
	// refNominalMs is what one block takes on the quiet reference host
	// (the lower decile of some thousand blocks). It only fixes the unit:
	// adjusted times read as that host's.
	refNominalMs = 9.2
	// refGap is the least time between the end of one block and the start
	// of the next, which caps the blocks' share of a phase near a tenth.
	refGap = 100 * time.Millisecond
)

// refThreads is how many threads run the kernel at once in a block: the
// reference host's two vCPUs, or the one this host has.
var refThreads = min(2, runtime.GOMAXPROCS(0))

var (
	refTable [4096]uint64
	refSink  atomic.Uint64 // keeps the kernel's result alive
)

func init() {
	for i := range refTable {
		refTable[i] = uint64(i+1) * 0x9e3779b97f4a7c15
	}
}

// refKernel is the reference block's work.
func refKernel() uint64 {
	t := &refTable
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < refIters; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b ^= b<<13 ^ t[a>>52]
		c += t[b&4095] ^ a
		d = d*3 + t[c&4095]
		if d&7 == 0 {
			a ^= d
		}
	}
	return a + b + c + d
}

// stretch is one interval of measured time, as offsets from the meter's
// epoch.
type stretch struct {
	start, end time.Duration
	op         bool // an op's latency, not just part of the total
}

// block is one reference block: where it lies, and how long the kernel
// took on average over the threads that ran it.
type block struct {
	start, end, kernel time.Duration
}

// meter times reference blocks between stretches of measured time and
// adjusts each stretch by the blocks around it. One meter serves a
// whole run; begin starts a new phase.
type meter struct {
	epoch     time.Time
	blocks    []block   // the current phase's reference blocks
	stretches []stretch // the current phase's measured time
	mark      time.Time // where the next lap starts
	// blockCPUS is the CPU time all blocks so far took: the runner's own,
	// to be kept out of an in-process workload's cpu_s.
	blockCPUS float64
}

// begin starts a phase whose first lap starts at from, and times a
// block.
func (m *meter) begin(from time.Time) {
	if m.epoch.IsZero() {
		m.epoch = from
	}
	m.blocks, m.stretches = m.blocks[:0], m.stretches[:0]
	if now := time.Now(); now.Sub(from) > 0 {
		m.stretches = append(m.stretches, stretch{from.Sub(m.epoch), now.Sub(m.epoch), false})
	}
	m.block()
}

// block times one reference block: the kernel on refThreads threads at
// once, so that both of the host's vCPUs are sampled — the program's
// rounds run on both, and the daemon answers on whichever is free.
func (m *meter) block() {
	cpu0 := stat.SelfCPUSeconds()
	others := make(chan time.Duration, refThreads-1)
	for i := 1; i < refThreads; i++ {
		go func() {
			t := time.Now()
			v := refKernel()
			d := time.Since(t)
			refSink.Add(v)
			others <- d
		}()
	}
	t0 := time.Now()
	v := refKernel()
	sum := time.Since(t0)
	refSink.Add(v)
	for i := 1; i < refThreads; i++ {
		sum += <-others
	}
	m.mark = time.Now()
	m.blocks = append(m.blocks, block{t0.Sub(m.epoch), m.mark.Sub(m.epoch), sum / time.Duration(refThreads)})
	m.blockCPUS += stat.SelfCPUSeconds() - cpu0
}

// record adds the stretch from t0 to now and, when refGap has passed
// since the last block, times another.
func (m *meter) record(t0 time.Time, op bool) {
	now := time.Now()
	m.stretches = append(m.stretches, stretch{t0.Sub(m.epoch), now.Sub(m.epoch), op})
	m.mark = now
	if now.Sub(m.epoch)-m.blocks[len(m.blocks)-1].end >= refGap {
		m.block()
	}
}

// op records an op that started at t0 and ends now.
func (m *meter) op(t0 time.Time) { m.record(t0, true) }

// lap records everything since the previous lap, op, block or skip as
// measured time that is not an op: set-up stages, and work inside the
// timed phase that belongs to the total but to no op.
func (m *meter) lap() { m.record(m.mark, false) }

// skip leaves the time since the previous lap unmeasured (the runner's
// own work, or the toolchain's).
func (m *meter) skip() { m.mark = time.Now() }

// end closes a phase with a block, so that its last stretches have one
// on either side.
func (m *meter) end() {
	if n := len(m.stretches); n > 0 && m.stretches[n-1].end > m.blocks[len(m.blocks)-1].start {
		m.block()
	}
}

// adjusted is a phase's measured time at the quiet host's speed.
type adjusted struct {
	opMs     []float64 // speed-adjusted op latencies, in op order
	totalS   float64   // speed-adjusted sum of all stretches
	rawS     float64   // the same sum as the clock read it
	rawOpMs  []float64
	indexP50 float64 // the blocks' median speed index
}

// adjust divides every stretch of the phase by the speed index of the
// blocks on either side of it — the mean of the nearest block that
// ended before the stretch began and the nearest that began after it
// ended — and sums up.
func (m *meter) adjust() adjusted {
	var a adjusted
	index := make([]float64, len(m.blocks))
	for i, b := range m.blocks {
		index[i] = float64(b.kernel.Nanoseconds()) / 1e6 / refNominalMs
	}
	a.indexP50 = stat.Median(index)
	for _, s := range m.stretches {
		// Blocks are in time order: after is the first that starts at or
		// after the stretch's end, before the last that ended by its start.
		after := sort.Search(len(m.blocks), func(i int) bool { return m.blocks[i].start >= s.end })
		before := sort.Search(len(m.blocks), func(i int) bool { return m.blocks[i].end > s.start }) - 1
		var idx float64
		switch {
		case before >= 0 && after < len(index):
			idx = (index[before] + index[after]) / 2
		case before >= 0:
			idx = index[before]
		default:
			idx = index[after]
		}
		raw := float64((s.end - s.start).Nanoseconds()) / 1e9
		a.rawS += raw
		a.totalS += raw / idx
		if s.op {
			a.rawOpMs = append(a.rawOpMs, raw*1e3)
			a.opMs = append(a.opMs, raw*1e3/idx)
		}
	}
	return a
}
