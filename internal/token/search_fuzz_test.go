package token

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"github.com/score-dc/score/internal/cluster"
)

// naiveToken is the linear-scan model of Token's entry operations.
type naiveToken struct{ entries []Entry }

func (m *naiveToken) index(id cluster.VMID) int {
	for i, e := range m.entries {
		if e.ID == id {
			return i
		}
	}
	return -1
}

func (m *naiveToken) level(id cluster.VMID) uint8 {
	if i := m.index(id); i >= 0 {
		return m.entries[i].Level
	}
	return 0
}

func (m *naiveToken) setLevel(id cluster.VMID, l uint8) {
	if i := m.index(id); i >= 0 {
		m.entries[i].Level = l
	}
}

func (m *naiveToken) raiseLevel(id cluster.VMID, l uint8) {
	if i := m.index(id); i >= 0 && m.entries[i].Level < l {
		m.entries[i].Level = l
	}
}

func (m *naiveToken) successor(id cluster.VMID) (cluster.VMID, bool) {
	if len(m.entries) == 0 {
		return 0, false
	}
	for _, e := range m.entries {
		if e.ID > id {
			return e.ID, true
		}
	}
	return m.entries[0].ID, true
}

func (m *naiveToken) add(id cluster.VMID) {
	if m.index(id) >= 0 {
		return
	}
	i := 0
	for i < len(m.entries) && m.entries[i].ID < id {
		i++
	}
	m.entries = slices.Insert(m.entries, i, Entry{ID: id})
}

func (m *naiveToken) remove(id cluster.VMID) {
	if i := m.index(id); i >= 0 {
		m.entries = slices.Delete(m.entries, i, i+1)
	}
}

// Token shapes the oracle's first input byte selects.
const (
	shapeDense = iota
	shapeGapped
	shapeSingle
	shapeEmpty
	shapeDecoded
	numShapes
)

// opsToken decodes fuzz bytes into a starting token: data[0] picks the
// shape, data[1] the size, data[2] the lowest ID (so dense and gapped
// rings come at offset bases too, up to just below math.MaxUint32), then
// the bytes from data[3] on give gaps and levels. It returns data[3:] for
// the operations.
func opsToken(data []byte) (*Token, []byte) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	shape := int(at(0)) % numShapes
	n := int(at(1)) % 48
	base := [...]cluster.VMID{0, 1, 1000, 1 << 31, math.MaxUint32 - 300}[int(at(2))%5]
	var rest []byte
	if len(data) > 3 {
		rest = data[3:]
	}
	switch shape {
	case shapeEmpty:
		return New(nil), rest
	case shapeSingle:
		return NewAtLevel([]cluster.VMID{base}, at(3)%5), rest
	}
	ids := make([]cluster.VMID, n)
	id := base
	for i := range ids {
		ids[i] = id
		if shape == shapeDense {
			id++
		} else {
			id += 1 + cluster.VMID(at(3+i)%5)
		}
	}
	if shape != shapeDecoded {
		return NewAtLevel(ids, 3), rest
	}
	// A token as it comes off the wire: arbitrary ascending IDs and
	// levels, never built by New.
	buf := make([]byte, headerBytes+entryBytes*n)
	binary.BigEndian.PutUint32(buf, magic)
	buf[4] = version
	binary.BigEndian.PutUint32(buf[5:], uint32(n))
	for i, id := range ids {
		off := headerBytes + entryBytes*i
		binary.BigEndian.PutUint32(buf[off:], uint32(id))
		buf[off+4] = at(3+n+i) % 5
	}
	tok, err := Decode(buf)
	if err != nil {
		panic(err)
	}
	return tok, rest
}

// opsID picks an operation's target: a member, its neighbours in ID
// (inside gaps), IDs below the first and above the last, or the extremes.
func opsID(es []Entry, sel, k byte) cluster.VMID {
	if len(es) == 0 {
		return cluster.VMID(k)
	}
	e := es[int(k)%len(es)].ID
	first, last := es[0].ID, es[len(es)-1].ID
	switch sel % 8 {
	case 0:
		return e
	case 1:
		return e + 1
	case 2:
		return e - 1
	case 3:
		return first - 1 - cluster.VMID(k%3)
	case 4:
		return last + 1 + cluster.VMID(k%3)
	case 5:
		return math.MaxUint32
	case 6:
		return 0
	default:
		return first + cluster.VMID(k)
	}
}

// FuzzTokenOpsEqualNaive holds every entry operation — and the one
// search under them (token.search's bounded guess, then a binary search
// below it) — to a linear-scan model: after each op the result and the
// whole entry array must agree.
func FuzzTokenOpsEqualNaive(f *testing.F) {
	// Every (op, target kind) pair in op order, twice: the second pass
	// runs over what the first one's adds and removes left.
	var ops []byte
	for pass := 0; pass < 2; pass++ {
		for op := byte(0); op < 7; op++ {
			for sel := byte(0); sel < 8; sel++ {
				ops = append(ops, op, sel, 8*op+sel+byte(pass))
			}
		}
	}
	for shape := byte(0); shape < numShapes; shape++ {
		for _, n := range []byte{0, 1, 2, 17, 47} {
			for base := byte(0); base < 5; base++ {
				f.Add(append([]byte{shape, n, base}, ops...))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tok, ops := opsToken(data)
		model := &naiveToken{entries: tok.Entries()}
		for len(ops) >= 3 {
			op, id, lvl := ops[0]%7, opsID(model.entries, ops[1], ops[2]), ops[2]%5
			ops = ops[3:]
			switch op {
			case 0:
				if got, want := tok.Has(id), model.index(id) >= 0; got != want {
					t.Fatalf("Has(%d) = %v, model %v over %v", id, got, want, model.entries)
				}
			case 1:
				if got, want := tok.Level(id), model.level(id); got != want {
					t.Fatalf("Level(%d) = %d, model %d over %v", id, got, want, model.entries)
				}
			case 2:
				tok.SetLevel(id, lvl)
				model.setLevel(id, lvl)
			case 3:
				tok.RaiseLevel(id, lvl)
				model.raiseLevel(id, lvl)
			case 4:
				got, ok := tok.Successor(id)
				want, wok := model.successor(id)
				if got != want || ok != wok {
					t.Fatalf("Successor(%d) = %d,%v, model %d,%v over %v", id, got, ok, want, wok, model.entries)
				}
			case 5:
				tok.Add(id)
				model.add(id)
			case 6:
				tok.Remove(id)
				model.remove(id)
			}
			if got := tok.Entries(); !slices.Equal(got, model.entries) {
				t.Fatalf("after op %d on %d: entries %v, model %v", op, id, got, model.entries)
			}
		}
	})
}
