package hypervisor

import (
	"math/rand"
	"sync"
	"time"
)

// FaultConfig parameterizes a FaultPlan: a deterministic, seeded schedule
// of message loss, duplication, delay and partitions applied on the send
// path of every wrapped transport. It is the chaos harness the recovery
// protocol (per-shard deadlines, ring regeneration, attempt sequence
// numbers) is tested against.
type FaultConfig struct {
	// Seed drives the probability draws. Two plans with equal seeds and
	// configs produce the same decision for the same draw sequence.
	Seed int64
	// DropProb / DupProb / DelayProb are per-eligible-message
	// probabilities; an eligible message is first tested for drop, then
	// (if it survives) for duplication and delay independently.
	DropProb, DupProb, DelayProb float64
	// DropEvery, when > 0, drops every DropEvery-th eligible message —
	// a count-based schedule with an exact loss ratio of 1/DropEvery,
	// independent of goroutine interleaving. It composes with DropProb
	// (either can fire).
	DropEvery int
	// Delay is the latency added to delayed messages.
	Delay time.Duration
	// Types restricts faults to the listed message types; nil or empty
	// leaves every type eligible. Partition blocks are not restricted by
	// Types — an isolated endpoint loses all its traffic, as a crashed
	// host would.
	Types []MsgType
}

// FaultStats counts the plan's interventions.
type FaultStats struct {
	// Eligible counts sends of an eligible type observed by the plan
	// (before any fault decision), Dropped/Duplicated/Delayed the
	// messages each fault consumed, and Blocked the sends suppressed by
	// a partition.
	Eligible   int
	Dropped    int
	Duplicated int
	Delayed    int
	Blocked    int
}

// FaultPlan is the shared fault schedule behind a set of FaultTransport
// wrappers: every endpoint of a plane wraps its transport with the same
// plan, so drops, duplicates, delays and partitions are drawn from one
// seeded sequence and counted in one place.
type FaultPlan struct {
	cfg      FaultConfig
	eligible [256]bool

	mu      sync.Mutex
	rng     *rand.Rand
	count   int
	blocked map[string]bool
	stats   FaultStats
}

// NewFaultPlan builds a plan from cfg. A zero-probability, zero-schedule
// plan is a pure passthrough: Send never consults the RNG, so a wrapped
// plane behaves bit-identically to an unwrapped one.
func NewFaultPlan(cfg FaultConfig) *FaultPlan {
	p := &FaultPlan{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		blocked: make(map[string]bool),
	}
	if len(cfg.Types) == 0 {
		for i := range p.eligible {
			p.eligible[i] = true
		}
	} else {
		for _, t := range cfg.Types {
			p.eligible[t] = true
		}
	}
	return p
}

// Wrap returns tr with the plan's faults applied to its send path.
func (p *FaultPlan) Wrap(tr Transport) Transport {
	return &FaultTransport{plan: p, inner: tr}
}

// faultAction is one send's fate under the plan.
type faultAction struct {
	drop, dup, delay bool
}

// decide draws one send's fate. Inactive plans and ineligible types
// consume no randomness, so a zero-fault plan leaves the draw sequence —
// and therefore the plane's behavior — untouched.
func (p *FaultPlan) decide(from, to string, t MsgType) faultAction {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.blocked[from] || p.blocked[to] {
		p.stats.Blocked++
		return faultAction{drop: true}
	}
	if !p.eligible[t] {
		return faultAction{}
	}
	active := p.cfg.DropProb > 0 || p.cfg.DupProb > 0 || p.cfg.DelayProb > 0 || p.cfg.DropEvery > 0
	if !active {
		return faultAction{}
	}
	p.stats.Eligible++
	p.count++
	var a faultAction
	if p.cfg.DropEvery > 0 && p.count%p.cfg.DropEvery == 0 {
		a.drop = true
	}
	if !a.drop && p.cfg.DropProb > 0 && p.rng.Float64() < p.cfg.DropProb {
		a.drop = true
	}
	if a.drop {
		p.stats.Dropped++
		return a
	}
	if p.cfg.DupProb > 0 && p.rng.Float64() < p.cfg.DupProb {
		a.dup = true
		p.stats.Duplicated++
	}
	if p.cfg.DelayProb > 0 && p.rng.Float64() < p.cfg.DelayProb {
		a.delay = true
		p.stats.Delayed++
	}
	return a
}

// FaultTransport applies a FaultPlan to an inner Transport's send path.
// Receives are untouched: loss on the wire is modeled at the sender, so
// one plan sees every message of the plane exactly once.
type FaultTransport struct {
	plan  *FaultPlan
	inner Transport
}

// Addr implements Transport.
func (f *FaultTransport) Addr() string { return f.inner.Addr() }

// Send implements Transport: the message is dropped, duplicated or
// delayed per the plan, otherwise forwarded verbatim. Dropped and blocked
// messages report success — loss is silent, exactly as a lost datagram or
// a dead peer behind an open socket; the protocol's deadlines, not the
// sender, must notice.
func (f *FaultTransport) Send(to string, m Message) error {
	a := f.plan.decide(f.inner.Addr(), to, m.Type)
	if a.drop {
		return nil
	}
	if a.delay {
		d := f.plan.cfg.Delay
		time.AfterFunc(d, func() {
			// A delayed frame may land after the endpoint closed; like
			// any late datagram, it vanishes without an error.
			_ = f.inner.Send(to, m)
			if a.dup {
				_ = f.inner.Send(to, m)
			}
		})
		return nil
	}
	if a.dup {
		if err := f.inner.Send(to, m); err != nil {
			return err
		}
	}
	return f.inner.Send(to, m)
}

// Close implements Transport.
func (f *FaultTransport) Close() error { return f.inner.Close() }

// Interface compliance check.
var _ Transport = (*FaultTransport)(nil)
