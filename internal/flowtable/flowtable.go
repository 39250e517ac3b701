// Package flowtable implements the hypervisor-resident flow table of
// Section V-B1 as far as Fig. 5a measures it. The package keeps the three
// operations the figure times — Add, LookupByIP (the retrieval of a VM's
// flow subset by IP address) and Delete — and GenerateKeys, which builds
// the figure's two flow populations: type-1 sets where every source IP is
// unique, and type-2 sets where groups of 1000 flows share a source IP.
//
// The paper's dom0 module also polls per-flow byte counters and durations
// to derive each VM's rates. No plane here polls a datapath: rates reach
// the decision engine as traffic-matrix samples, so the table carries no
// counters.
package flowtable

import (
	"fmt"
	"sync"
	"time"
)

// IPv4 is an IPv4 address in host byte order. The paper uses VM IPv4
// addresses directly as 32-bit identifiers.
type IPv4 uint32

// String renders dotted-quad notation.
func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Key is the 5-tuple identifying a flow.
type Key struct {
	Src, Dst         IPv4
	SrcPort, DstPort uint16
	Proto            uint8
}

// Flow is one tracked flow and the time it was first observed.
type Flow struct {
	Key   Key
	Start time.Time
}

// Table is a concurrency-safe flow table indexed by 5-tuple with
// secondary per-IP indexes (source and destination) for subset retrieval.
// The zero value is ready to use.
type Table struct {
	mu    sync.RWMutex
	flows map[Key]*Flow
	bySrc map[IPv4]map[Key]*Flow
	byDst map[IPv4]map[Key]*Flow
}

// New returns an empty table with capacity hints for n flows.
func New(n int) *Table {
	return &Table{
		flows: make(map[Key]*Flow, n),
		bySrc: make(map[IPv4]map[Key]*Flow),
		byDst: make(map[IPv4]map[Key]*Flow),
	}
}

func (t *Table) initLocked() {
	if t.flows == nil {
		t.flows = make(map[Key]*Flow)
		t.bySrc = make(map[IPv4]map[Key]*Flow)
		t.byDst = make(map[IPv4]map[Key]*Flow)
	}
}

// Add inserts a new flow first observed at now. If the flow already
// exists it is left untouched and Add reports false.
func (t *Table) Add(k Key, now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.initLocked()
	if _, ok := t.flows[k]; ok {
		return false
	}
	f := &Flow{Key: k, Start: now}
	t.flows[k] = f
	t.indexLocked(f)
	return true
}

func (t *Table) indexLocked(f *Flow) {
	src := t.bySrc[f.Key.Src]
	if src == nil {
		src = make(map[Key]*Flow)
		t.bySrc[f.Key.Src] = src
	}
	src[f.Key] = f
	dst := t.byDst[f.Key.Dst]
	if dst == nil {
		dst = make(map[Key]*Flow)
		t.byDst[f.Key.Dst] = dst
	}
	dst[f.Key] = f
}

// LookupByIP returns copies of all flows whose source or destination is
// ip — the "retrieval of a subset of flows, by IP address" operation used
// to compute a VM's aggregate load when it receives the token.
func (t *Table) LookupByIP(ip IPv4) []Flow {
	t.mu.RLock()
	defer t.mu.RUnlock()
	src, dst := t.bySrc[ip], t.byDst[ip]
	out := make([]Flow, 0, len(src)+len(dst))
	for _, f := range src {
		out = append(out, *f)
	}
	for k, f := range dst {
		if k.Src == ip { // already emitted from the source index
			continue
		}
		out = append(out, *f)
	}
	return out
}

// Delete removes the flow for k, reporting whether it existed.
func (t *Table) Delete(k Key) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, ok := t.flows[k]
	if !ok {
		return false
	}
	delete(t.flows, k)
	t.unindexLocked(f)
	return true
}

func (t *Table) unindexLocked(f *Flow) {
	if s := t.bySrc[f.Key.Src]; s != nil {
		delete(s, f.Key)
		if len(s) == 0 {
			delete(t.bySrc, f.Key.Src)
		}
	}
	if d := t.byDst[f.Key.Dst]; d != nil {
		delete(d, f.Key)
		if len(d) == 0 {
			delete(t.byDst, f.Key.Dst)
		}
	}
}

// TypeSet names the two stress-test flow populations of Fig. 5a.
type TypeSet int

// Flow-set types from the paper's flow-table stress test.
const (
	// Type1 is "1 million flows with all source IP addresses being
	// unique".
	Type1 TypeSet = 1
	// Type2 is "1 million unique flows, where groups of 1000 flows share
	// the same source IP address".
	Type2 TypeSet = 2
)

// GenerateKeys builds n distinct flow keys of the given set type, for the
// Fig. 5a stress benchmarks.
func GenerateKeys(set TypeSet, n int) []Key {
	keys := make([]Key, n)
	const groupSize = 1000
	for i := range keys {
		var src IPv4
		switch set {
		case Type2:
			src = IPv4(0x0a000000 + uint32(i/groupSize))
		default:
			src = IPv4(0x0a000000 + uint32(i))
		}
		keys[i] = Key{
			Src:     src,
			Dst:     IPv4(0xc0a80000 + uint32(i%65521)),
			SrcPort: uint16(1024 + i%60000),
			DstPort: uint16(80 + i%7),
			Proto:   6,
		}
	}
	return keys
}
