package token

import (
	"bytes"
	"testing"

	"github.com/score-dc/score/internal/cluster"
)

// FuzzDecode: the token rides inside every shard-ring frame, including
// regenerated ones the reconciler rebuilds from acked copies — arbitrary
// bytes must never panic the decoder, and any accepted token must
// round-trip to identical wire bytes.
func FuzzDecode(f *testing.F) {
	f.Add(New([]cluster.VMID{1, 2, 3}).Encode())
	f.Add(NewAtLevel([]cluster.VMID{7, 9, 4000000000}, 5).Encode())
	f.Add([]byte{})
	f.Add([]byte{0x53, 0x43, 0x54, 0x52, 1, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		tok, err := Decode(data)
		if err != nil {
			return
		}
		again, err := Decode(tok.Encode())
		if err != nil {
			t.Fatalf("re-decode of accepted token failed: %v", err)
		}
		if !bytes.Equal(again.Encode(), tok.Encode()) {
			t.Fatal("token round trip not identity")
		}
	})
}

// fuzzPass decodes fuzz bytes into one fresh pass: an ID set, a depth,
// and for every hop the holder's view — own level and a few neighbour
// levels, none above depth (a level is a hop count in the topology).
// The views are arbitrary; the decisions that would produce them are not
// the property's business.
func fuzzPass(data []byte) (ids []cluster.VMID, depth uint8, views func(holder cluster.VMID, hop int) HolderView) {
	if len(data) < 2 {
		return nil, 0, nil
	}
	depth = 1 + data[0]%4
	n := 2 + int(data[1])%30
	data = data[2:]
	at := func(i int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[i%len(data)]
	}
	id := cluster.VMID(0)
	for i := 0; i < n; i++ {
		id += 1 + cluster.VMID(at(i)%7)
		ids = append(ids, id)
	}
	views = func(holder cluster.VMID, hop int) HolderView {
		v := HolderView{Holder: holder, OwnLevel: at(3*hop) % (depth + 1), NeighborLevels: map[cluster.VMID]uint8{}}
		for j := 0; j < 3; j++ {
			peer := ids[int(at(3*hop+j+1))%n]
			if peer != holder {
				v.NeighborLevels[peer] = at(5*hop+j) % (depth + 1)
			}
		}
		return v
	}
	return ids, depth, views
}

// reordersFreshPass walks one pass (every forwarding of it: n-1 hops
// from the lowest ID) over a token initialised at depth and reports the
// first hop at which pol does not hand the token to the ring successor.
func reordersFreshPass(pol Policy, ids []cluster.VMID, depth uint8, views func(cluster.VMID, int) HolderView) (hop int, reorders bool) {
	tok := NewAtLevel(ids, depth)
	holder, _ := tok.Inject()
	for hop := 0; hop < len(ids)-1; hop++ {
		want, _ := tok.Successor(holder)
		got, ok := pol.Next(tok, views(holder, hop))
		if !ok || got != want {
			return hop, true
		}
		holder = got
	}
	return 0, false
}

// FuzzFreshPassIsRingOrder: the claim both sharded schedulers rest on —
// over one pass of a token initialised at the topology depth, every
// RingOrder policy forwards to the ring successor at every hop, whatever
// the holders report. That is why a round walks its rings in ID order
// without building a token or asking a policy. Lowest-Level-First is the
// counter-example that keeps the property from being vacuous: the first
// seed below sends it out of order.
func FuzzFreshPassIsRingOrder(f *testing.F) {
	llfBreaks := []byte{2, 6, 1, 0, 3, 2, 0, 1, 2, 3}
	ids, depth, views := fuzzPass(llfBreaks)
	if _, bad := reordersFreshPass(LowestLevelFirst{}, ids, depth, views); !bad {
		f.Fatal("Lowest-Level-First kept ring order on its counter-example seed")
	}
	for _, pol := range []Policy{LowestLevelFirst{}, &Random{}} {
		if _, marked := pol.(RingOrder); marked {
			f.Fatalf("%s is marked RingOrder", pol.Name())
		}
	}
	f.Add(llfBreaks)
	f.Add([]byte{0, 0})
	f.Add([]byte{3, 29, 255, 254, 7, 0, 0, 9, 4, 4, 4, 1})
	f.Add([]byte{1, 3, 6, 6, 6, 6, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		ids, depth, views := fuzzPass(data)
		if ids == nil {
			return
		}
		for _, pol := range []Policy{RoundRobin{}, HighestLevelFirst{}} {
			if _, marked := pol.(RingOrder); !marked {
				t.Fatalf("%s is not marked RingOrder", pol.Name())
			}
			if hop, bad := reordersFreshPass(pol, ids, depth, views); bad {
				t.Fatalf("%s left ring order at hop %d of a fresh pass over %v (depth %d)", pol.Name(), hop, ids, depth)
			}
		}
	})
}
