// Package token implements the migration token of Section V-A: the
// message that circulates among VMs and serializes unilateral migration
// decisions, together with the policies that choose the next holder.
//
// A token is "a message formed as an array of entries", each holding a
// 32-bit VM ID ("capable of representing over 4 billion IDs before
// recycling") and an 8-bit communication level, stored in ascending order
// by VM ID. The message size is of the order of |V|.
//
// The level entries are history: a policy prioritises with what earlier
// passes of the same token recorded. Only the single persistent token
// (sim.Runner's serial run, the global agent ring) has any —
// there all four policies differ. A sharded round starts every ring's
// token fresh and walks it for one pass, where the RingOrder policies
// all reduce to "pass to the next ID": both sharded schedulers visit in
// that one order without asking a policy, and refuse the others.
package token

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/score-dc/score/internal/cluster"
)

// Entry is one (VM ID, highest communication level) record.
type Entry struct {
	ID    cluster.VMID
	Level uint8
}

// Token is the circulating message. Entries are kept sorted by ascending
// VM ID at all times.
type Token struct {
	entries []Entry
}

// New builds a token over the given VM IDs with every level initialized
// to zero ("the highest communication level is initialized at zero for
// all VMs", Section V-A2).
//
// Note: zero-initialization makes HLF treat unvisited VMs as the
// *coldest* candidates. On traffic graphs with disconnected components
// (e.g. independent job cliques) the level information recorded by
// visits cannot propagate across components, and the ring can contract
// onto one already-localized clique before others are ever visited. Use
// NewAtLevel(ids, depth) for the optimistic initialization that
// guarantees every VM one visit before prioritization kicks in.
func New(ids []cluster.VMID) *Token { return NewAtLevel(ids, 0) }

// NewAtLevel builds a token with every entry's level preset, typically
// to the topology depth so "unknown" reads as "assume hottest".
func NewAtLevel(ids []cluster.VMID, level uint8) *Token {
	entries := make([]Entry, len(ids))
	for i, id := range ids {
		entries[i] = Entry{ID: id, Level: level}
	}
	// Sort and drop duplicates defensively; IDs are unique by
	// construction.
	slices.SortFunc(entries, func(a, b Entry) int { return cmp.Compare(a.ID, b.ID) })
	return &Token{entries: dedup(entries)}
}

func dedup(es []Entry) []Entry {
	out := es[:0]
	for i, e := range es {
		if i == 0 || e.ID != es[i-1].ID {
			out = append(out, e)
		}
	}
	return out
}

// Rings builds one token per shard ring: lists[s] is shard s's VM
// population and becomes its own independent ring, every entry preset to
// level (NewAtLevel semantics — pass the topology depth for the
// optimistic initialization). Empty lists yield empty tokens, which
// Inject reports as having no injection point.
func Rings(lists [][]cluster.VMID, level uint8) []*Token {
	out := make([]*Token, len(lists))
	for s, ids := range lists {
		out[s] = NewAtLevel(ids, level)
	}
	return out
}

// Inject returns the ring's injection point under the paper's policy:
// the token starts "from the VM with lowest ID" (Section V-A1). ok is
// false for an empty token.
func (t *Token) Inject() (cluster.VMID, bool) {
	if len(t.entries) == 0 {
		return 0, false
	}
	return t.entries[0].ID, true
}

// Len returns the number of entries.
func (t *Token) Len() int { return len(t.entries) }

// Entries returns a copy of the entry array.
func (t *Token) Entries() []Entry { return append([]Entry(nil), t.entries...) }

// search returns the index of the first entry whose ID is ≥ id, or Len()
// if there is none.
func (t *Token) search(id cluster.VMID) int {
	es := t.entries
	if len(es) == 0 || id <= es[0].ID {
		return 0
	}
	// Distinct ascending IDs grow by at least one per index, so the first
	// entry at or above id sits at index ≤ id − entries[0].ID — exactly
	// there on an ID-dense ring.
	lo, hi := 1, len(es)
	if b := uint64(id - es[0].ID); b < uint64(len(es)) {
		if es[b].ID == id {
			return int(b)
		}
		hi = int(b)
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if es[m].ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// find returns the index of id, or -1.
func (t *Token) find(id cluster.VMID) int {
	if i := t.search(id); i < len(t.entries) && t.entries[i].ID == id {
		return i
	}
	return -1
}

// SetLevel overwrites the level estimate for id. Unknown IDs are ignored.
func (t *Token) SetLevel(id cluster.VMID, level uint8) {
	if i := t.find(id); i >= 0 {
		t.entries[i].Level = level
	}
}

// RaiseLevel records level for id only if it exceeds the stored estimate
// — the HLF update rule ("this update takes place only if the existing
// estimation lv is smaller than the new value").
func (t *Token) RaiseLevel(id cluster.VMID, level uint8) {
	if i := t.find(id); i >= 0 && t.entries[i].Level < level {
		t.entries[i].Level = level
	}
}

// Successor returns the entry following id in the ascending ring
// (u ⊕ 1 in the paper's notation), wrapping to the lowest ID.
func (t *Token) Successor(id cluster.VMID) (cluster.VMID, bool) {
	if len(t.entries) == 0 {
		return 0, false
	}
	i := t.search(id)
	if i < len(t.entries) && t.entries[i].ID == id {
		i++
	}
	if i == len(t.entries) {
		i = 0
	}
	return t.entries[i].ID, true
}

// Remove deletes a VM from the token (e.g. a terminated instance).
func (t *Token) Remove(id cluster.VMID) {
	if i := t.find(id); i >= 0 {
		t.entries = append(t.entries[:i], t.entries[i+1:]...)
	}
}

// Wire format: a fixed header followed by 5-byte entries (4-byte big-
// endian VM ID + 1-byte level), "stored and transmitted as a block" of
// integers (Section V-B2).
const (
	magic       = 0x53435452 // "SCTR"
	version     = 1
	headerBytes = 4 + 1 + 4 // magic + version + count
	entryBytes  = 4 + 1
)

// Encoding errors.
var (
	ErrBadMagic   = errors.New("token: bad magic")
	ErrBadVersion = errors.New("token: unsupported version")
	ErrTruncated  = errors.New("token: truncated message")
)

// Encode serializes the token for network transmission.
func (t *Token) Encode() []byte {
	buf := make([]byte, headerBytes+entryBytes*len(t.entries))
	binary.BigEndian.PutUint32(buf[0:4], magic)
	buf[4] = version
	binary.BigEndian.PutUint32(buf[5:9], uint32(len(t.entries)))
	off := headerBytes
	for _, e := range t.entries {
		binary.BigEndian.PutUint32(buf[off:off+4], uint32(e.ID))
		buf[off+4] = e.Level
		off += entryBytes
	}
	return buf
}

// Decode parses a token message produced by Encode.
func Decode(buf []byte) (*Token, error) {
	if len(buf) < headerBytes {
		return nil, ErrTruncated
	}
	if binary.BigEndian.Uint32(buf[0:4]) != magic {
		return nil, ErrBadMagic
	}
	if buf[4] != version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, buf[4])
	}
	n := int(binary.BigEndian.Uint32(buf[5:9]))
	if len(buf) < headerBytes+n*entryBytes {
		return nil, ErrTruncated
	}
	t := &Token{entries: make([]Entry, n)}
	off := headerBytes
	prev := cluster.VMID(0)
	for i := 0; i < n; i++ {
		id := cluster.VMID(binary.BigEndian.Uint32(buf[off : off+4]))
		if i > 0 && id <= prev {
			return nil, fmt.Errorf("token: entries not in ascending ID order at index %d", i)
		}
		t.entries[i] = Entry{ID: id, Level: buf[off+4]}
		prev = id
		off += entryBytes
	}
	return t, nil
}
