package main

import "math/rand"

// pairKey names an unordered VM pair.
type pairKey uint64

func keyOf(a, b uint32) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey(a)<<32 | pairKey(b)
}

func (k pairKey) ends() (uint32, uint32) { return uint32(k >> 32), uint32(k) }

// pairSet is the generator's model of which pairs the daemon's traffic
// matrix holds at a positive rate: constant-time membership, insert,
// remove and uniform pick, all deterministic for a given op sequence.
type pairSet struct {
	list  []pairKey
	index map[pairKey]int32
}

func newPairSet(hint int) *pairSet {
	return &pairSet{list: make([]pairKey, 0, hint), index: make(map[pairKey]int32, hint)}
}

func (s *pairSet) len() int { return len(s.list) }

func (s *pairSet) has(k pairKey) bool { _, ok := s.index[k]; return ok }

func (s *pairSet) add(k pairKey) {
	if s.has(k) {
		return
	}
	s.index[k] = int32(len(s.list))
	s.list = append(s.list, k)
}

func (s *pairSet) remove(k pairKey) {
	i, ok := s.index[k]
	if !ok {
		return
	}
	last := s.list[len(s.list)-1]
	s.list[i] = last
	s.index[last] = i
	s.list = s.list[:len(s.list)-1]
	delete(s.index, k)
}

func (s *pairSet) pick(rng *rand.Rand) pairKey { return s.list[rng.Intn(len(s.list))] }

// matrixModel adds per-VM adjacency to a pairSet, for the workload that
// retires a VM group's pairs and deletes VMs.
type matrixModel struct {
	pairs *pairSet
	adj   map[uint32][]uint32
}

func newMatrixModel(hint int) *matrixModel {
	return &matrixModel{pairs: newPairSet(hint), adj: make(map[uint32][]uint32, hint)}
}

// set mirrors traffic.Matrix.Set as the observe API documents it: a
// positive rate creates or updates the pair, zero retires it.
func (m *matrixModel) set(a, b uint32, rate float64) {
	k := keyOf(a, b)
	switch {
	case rate > 0 && !m.pairs.has(k):
		m.pairs.add(k)
		m.adj[a] = append(m.adj[a], b)
		m.adj[b] = append(m.adj[b], a)
	case rate <= 0 && m.pairs.has(k):
		m.pairs.remove(k)
		m.unlink(a, b)
		m.unlink(b, a)
	}
}

func (m *matrixModel) unlink(a, b uint32) {
	row := m.adj[a]
	for i, p := range row {
		if p == b {
			row[i] = row[len(row)-1]
			m.adj[a] = row[:len(row)-1]
			return
		}
	}
}

// removeVM mirrors DELETE /v1/vms/{id}: the VM's whole row goes.
func (m *matrixModel) removeVM(vm uint32) {
	for _, p := range append([]uint32(nil), m.adj[vm]...) {
		m.set(vm, p, 0)
	}
	delete(m.adj, vm)
}
