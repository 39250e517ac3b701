package token

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/score-dc/score/internal/cluster"
)

// refNext is Algorithm 1 (lowest = false) or its LLF mirror (lowest =
// true) as written before the policies searched the holder once: a
// Level read, a SetLevel and a search for the scan start, each its own
// search, and the levels raised from a map. An absent holder reads level
// 0, records nothing and starts the scan at index 0.
func refNext(tok *Token, holder cluster.VMID, own uint8, levels map[cluster.VMID]uint8, lowest bool) (cluster.VMID, bool) {
	es := tok.entries
	if len(es) < 2 {
		return 0, false
	}
	sweep := int(tok.Level(holder))
	tok.SetLevel(holder, own)
	for v, l := range levels {
		tok.RaiseLevel(v, l)
	}
	start := 0
	if i := tok.find(holder); i >= 0 {
		start = (i + 1) % len(es)
	}
	if lowest {
		best, pick := -1, cluster.VMID(0)
		for k := range es {
			if e := es[(start+k)%len(es)]; e.ID != holder && (best == -1 || int(e.Level) < best) {
				best, pick = int(e.Level), e.ID
			}
		}
		return pick, best >= 0
	}
	for cl := sweep; cl >= 0; cl-- {
		base := 0
		if cl == sweep {
			base = start
		}
		for k := range es {
			if e := es[(base+k)%len(es)]; e.ID != holder && int(e.Level) == cl {
				return e.ID, true
			}
		}
	}
	maxLvl, pick := -1, cluster.VMID(0)
	for _, e := range es {
		if e.ID != holder && int(e.Level) > maxLvl {
			maxLvl, pick = int(e.Level), e.ID
		}
	}
	return pick, maxLvl >= 0
}

// TestNeighborsEqualLegacyMap: over generated tokens and views, HLF and
// LLF pick the same next holder and leave byte-identical tokens whether
// the holder's pair levels arrive as Neighbors (in any order) or as the
// legacy NeighborLevels map, and both agree with the reference that
// searched for the holder three times. Views name peers outside the
// token and holders absent from it, and hop many times per token so the
// recorded history drives the scans.
func TestNeighborsEqualLegacyMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		const depth = 3
		span := 2 + rng.Intn(60)
		var ids []cluster.VMID
		for id := 0; id < span; id++ {
			if rng.Intn(4) != 0 { // gaps leave IDs a view may name but the token lacks
				ids = append(ids, cluster.VMID(id))
			}
		}
		for _, lowest := range []bool{false, true} {
			var pol Policy = HighestLevelFirst{}
			if lowest {
				pol = LowestLevelFirst{}
			}
			viaSlice := NewAtLevel(ids, uint8(rng.Intn(depth+1)))
			viaMap, viaRef := NewAtLevel(ids, 0), NewAtLevel(ids, 0)
			copy(viaMap.entries, viaSlice.entries)
			copy(viaRef.entries, viaSlice.entries)
			holder := cluster.VMID(rng.Intn(span + 2))
			for hop := 0; hop < 40; hop++ {
				own := uint8(rng.Intn(depth + 1))
				var nbrs []Entry
				levels := map[cluster.VMID]uint8{}
				for n := rng.Intn(8); n > 0; n-- {
					v := cluster.VMID(rng.Intn(span + 4))
					if _, dup := levels[v]; dup || v == holder {
						continue
					}
					l := uint8(rng.Intn(depth + 1))
					nbrs = append(nbrs, Entry{ID: v, Level: l})
					levels[v] = l
				}
				rng.Shuffle(len(nbrs), func(i, j int) { nbrs[i], nbrs[j] = nbrs[j], nbrs[i] })
				a, okA := pol.Next(viaSlice, HolderView{Holder: holder, OwnLevel: own, Neighbors: nbrs})
				b, okB := pol.Next(viaMap, HolderView{Holder: holder, OwnLevel: own, NeighborLevels: levels})
				c, okC := refNext(viaRef, holder, own, levels, lowest)
				if a != b || okA != okB || a != c || okA != okC {
					t.Fatalf("trial %d %s hop %d, holder %d: Neighbors → %d,%v; map → %d,%v; reference → %d,%v",
						trial, pol.Name(), hop, holder, a, okA, b, okB, c, okC)
				}
				enc := viaSlice.Encode()
				if !bytes.Equal(enc, viaMap.Encode()) || !bytes.Equal(enc, viaRef.Encode()) {
					t.Fatalf("trial %d %s hop %d, holder %d: tokens differ after the hop", trial, pol.Name(), hop, holder)
				}
				if !okA {
					break
				}
				holder = a
				if rng.Intn(10) == 0 {
					holder = cluster.VMID(rng.Intn(span + 2)) // now and then a holder the token may lack
				}
			}
		}
	}
}
