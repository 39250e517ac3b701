package token

import "github.com/score-dc/score/internal/cluster"

// Has reports whether id is in the token.
func (t *Token) Has(id cluster.VMID) bool { return t.find(id) >= 0 }

// Level returns the recorded level estimate for id (0 if absent).
func (t *Token) Level(id cluster.VMID) uint8 {
	if i := t.find(id); i >= 0 {
		return t.entries[i].Level
	}
	return 0
}
