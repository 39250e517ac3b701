package token

import (
	"fmt"
	"math/rand"

	"github.com/score-dc/score/internal/cluster"
)

// HolderView is the local knowledge a token-holding VM (in practice, its
// hypervisor) contributes to the next-holder decision: its own highest
// communication level ℓ^A(u) and the pairwise levels ℓ^A(u, v) for the
// VMs it exchanges traffic with.
type HolderView struct {
	Holder cluster.VMID
	// OwnLevel is ℓ^A(u) after any migration the holder just performed.
	OwnLevel uint8
	// Neighbors holds one (v, ℓ^A(u, v)) entry per v ∈ Vu, in any order:
	// raising levels is a monotone max, so the order cannot change what
	// a policy records. It is lent for the duration of Next: the caller
	// refills it for the next hop, so no policy retains it.
	Neighbors []Entry
	// NeighborLevels maps v ∈ Vu to ℓ^A(u, v), lent like Neighbors and
	// raised from after it. No program fills it; it is kept only for
	// callers that still build the map.
	NeighborLevels map[cluster.VMID]uint8
}

// Policy selects the next token holder. Implementations may mutate the
// token's level entries using the holder's local view, as HLF does.
type Policy interface {
	// Name identifies the policy in reports ("Round Robin", …).
	Name() string
	// Next updates tok from the holder's view and returns the VM the
	// token should be passed to. ok is false when the token holds no
	// other VM.
	Next(tok *Token, view HolderView) (next cluster.VMID, ok bool)
}

// Interface compliance checks.
var (
	_ Policy = (*RoundRobin)(nil)
	_ Policy = (*HighestLevelFirst)(nil)
	_ Policy = (*Random)(nil)
	_ Policy = (*LowestLevelFirst)(nil)
)

// RingOrder marks the policies under which one pass over a token
// initialised at the topology depth (NewAtLevel(ids, depth), started at
// the lowest ID) visits ascending IDs: at every hop of that pass Next
// returns the ring successor, whatever the holders' views say. A token
// that lives for one pass carries no history for such a policy to
// prioritise with, so the sharded schedulers — which start every ring
// fresh each round — walk their rings in ID order and accept only these
// (FuzzFreshPassIsRingOrder holds the implementers to it).
type RingOrder interface {
	RingOrder()
}

// RoundRobin passes the token among VMs in ascending ID order
// (Section V-A1): starting from the VM with the lowest ID, the token
// visits each VM exactly once per cycle and wraps around.
type RoundRobin struct{}

// Name implements Policy.
func (RoundRobin) Name() string { return "round-robin" }

// RingOrder implements the marker: Next only walks the ring order.
func (RoundRobin) RingOrder() {}

// Next implements Policy.
func (RoundRobin) Next(tok *Token, view HolderView) (cluster.VMID, bool) {
	next, ok := tok.Successor(view.Holder)
	if !ok || next == view.Holder {
		return 0, false
	}
	return next, true
}

// HighestLevelFirst implements Algorithm 1: the token preferentially
// visits VMs whose traffic crosses the highest-layer links, where
// migration is most likely to pay off. The holder first refreshes the
// token's level entries from its local view (its own level
// unconditionally, neighbors' levels monotonically upward), then scans
// the ring for a VM recorded at its current level, descending one level
// at a time; if no candidate exists at any level it restarts from the
// lowest-ID VM among those at the maximum recorded level.
type HighestLevelFirst struct{}

// Name implements Policy.
func (HighestLevelFirst) Name() string { return "highest-level-first" }

// RingOrder implements the marker: on a first pass every VM ahead of the
// holder still reads the initial level — the highest there is — so the
// scan of Algorithm 1 stops at the successor.
func (HighestLevelFirst) RingOrder() {}

// Next implements Policy.
func (HighestLevelFirst) Next(tok *Token, view HolderView) (cluster.VMID, bool) {
	if tok.Len() < 2 {
		return 0, false
	}
	// One search places the holder; i is -1 when the token lacks it.
	i := tok.find(view.Holder)

	// Line 1: cl maintains the level of the sweep in progress — the
	// token's *stored* estimate for the holder as the token arrived.
	// Seeding the scan from the holder's post-migration level instead
	// would trap the token: a freshly localized holder (level 0) would
	// only ever look for other level-0 VMs and ping-pong with its
	// co-located peer.
	sweep := 0
	if i >= 0 {
		sweep = int(tok.entries[i].Level)
	}

	// Text + lines 3–5: the holder records its own exact level (it may
	// have just migrated, lowering it) and raises its neighbors'
	// estimates.
	tok.raise(i, view)

	// Lines 6–14: from the sweep level downward, find the next VM
	// recorded at exactly the current scan level. The first scan starts
	// at the holder's successor (u ⊕ 1); per line 14, lower-level scans
	// restart from the beginning of the ring (v0).
	entries := tok.entries
	start := (i + 1) % len(entries) // the holder's successor; 0 for an absent holder
	for cl := sweep; cl >= 0; cl-- {
		base := 0
		if cl == sweep {
			base = start
		}
		for k := 0; k < len(entries); k++ {
			j := (base + k) % len(entries)
			if j != i && int(entries[j].Level) == cl {
				return entries[j].ID, true
			}
		}
	}

	// Lines 15–16: nothing at or below the holder's level — restart from
	// the lowest-ID VM among those at the highest recorded level.
	maxLvl := -1
	var pick cluster.VMID
	for j, e := range entries {
		if j != i && int(e.Level) > maxLvl {
			maxLvl = int(e.Level)
			pick = e.ID
		}
	}
	return pick, maxLvl >= 0
}

// raise is lines 3–5 of Algorithm 1 for the holder at index i (-1 when
// absent, which records nothing for it): the holder's own level, then
// every neighbor's estimate raised.
func (t *Token) raise(i int, view HolderView) {
	if i >= 0 {
		t.entries[i].Level = view.OwnLevel
	}
	for _, n := range view.Neighbors {
		t.RaiseLevel(n.ID, n.Level)
	}
	for v, lvl := range view.NeighborLevels {
		t.RaiseLevel(v, lvl)
	}
}

// Random is an extension policy from the family explored in the S-CORE
// technical report [21]: the token jumps to a uniformly random other VM.
// It needs no level state but loses HLF's prioritization.
type Random struct {
	// Rng must be non-nil; deterministic runs pass a seeded source.
	Rng *rand.Rand
}

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// Next implements Policy.
func (r *Random) Next(tok *Token, view HolderView) (cluster.VMID, bool) {
	n := tok.Len()
	if n < 2 {
		return 0, false
	}
	i := tok.find(view.Holder)
	if i >= 0 {
		tok.entries[i].Level = view.OwnLevel
	}
	for {
		if j := r.Rng.Intn(n); j != i {
			return tok.entries[j].ID, true
		}
	}
}

// LowestLevelFirst is the adversarial mirror of HLF, included as an
// ablation: it prioritizes VMs at the lowest recorded level, i.e. those
// least likely to benefit from migration. Comparing it against HLF
// quantifies the value of HLF's prioritization.
type LowestLevelFirst struct{}

// Name implements Policy.
func (LowestLevelFirst) Name() string { return "lowest-level-first" }

// Next implements Policy.
func (LowestLevelFirst) Next(tok *Token, view HolderView) (cluster.VMID, bool) {
	if tok.Len() < 2 {
		return 0, false
	}
	i := tok.find(view.Holder)
	tok.raise(i, view)
	entries := tok.entries
	start := (i + 1) % len(entries) // the holder's successor; 0 for an absent holder
	best := -1
	var pick cluster.VMID
	for k := 0; k < len(entries); k++ {
		j := (start + k) % len(entries)
		if j == i {
			continue
		}
		if e := entries[j]; best == -1 || int(e.Level) < best {
			best = int(e.Level)
			pick = e.ID
		}
	}
	if best == -1 {
		return 0, false
	}
	return pick, true
}

// ByName returns the policy registered under name; rng seeds the Random
// policy and may be nil for the deterministic ones.
func ByName(name string, rng *rand.Rand) (Policy, error) {
	switch name {
	case "round-robin", "rr":
		return RoundRobin{}, nil
	case "highest-level-first", "hlf":
		return HighestLevelFirst{}, nil
	case "lowest-level-first", "llf":
		return LowestLevelFirst{}, nil
	case "random":
		if rng == nil {
			return nil, fmt.Errorf("token: random policy requires a random source")
		}
		return &Random{Rng: rng}, nil
	default:
		return nil, fmt.Errorf("token: unknown policy %q", name)
	}
}
