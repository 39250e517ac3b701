package hypervisor

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/traffic"
)

// StagedMove is one decision recorded in a shard ring's state: either an
// intra-shard commit (applied at merge time) or a cross-shard proposal
// (queued for reconciliation). It carries everything the reconciler
// needs to re-validate ΔC and re-probe capacity against post-merge
// state: the VM's demand and its full peer-rate table, mirroring a
// MsgMigrate payload.
type StagedMove struct {
	VM       cluster.VMID
	From, To cluster.HostID
	// Delta is the staged ΔC, computed against the ring's frozen view.
	Delta           float64
	RAMMB, CPUMilli int32
	// NICFrom and NICTo are the move's NIC-load changes at its source and
	// target at the peer positions the staging visit decided on; later
	// visits of the ring fold them into capacity responses.
	NICFrom, NICTo float64
	// Hop is the 0-based token visit the move was staged at and Attempt
	// the ring regeneration it was staged under — decision provenance
	// carried to the reconciler's audit records.
	Hop     int32
	Attempt uint32
	// Rates is the VM's adjacency row, sorted by peer ID.
	Rates []traffic.Edge
}

// RingState is the blob that rides with a shard token: the ring's
// identity and progress plus everything it has staged so far. It is the
// distributed analogue of the Coordinator's per-shard AllocView overlay
// — a holder's decision resolves locations and capacities through
// Staged before falling back to probed round-start state.
type RingState struct {
	// Shard identifies the ring; Round ties the state to one
	// reconciler cycle so stragglers from aborted rounds are discarded.
	Shard int32
	Round uint32
	// Attempt is the ring's per-round regeneration sequence number: 0
	// for the initially injected token, incremented each time the
	// reconciler regenerates the ring after a missed deadline. The
	// reconciler accepts acks and completion reports only for the
	// current attempt, so a presumed-lost token that is merely slow can
	// never double-apply its staged moves.
	Attempt uint32
	// Hops counts processed visits; the ring completes at Limit (the
	// shard population at round start — one pass, |V_s| visits).
	Hops, Limit int32
	// Token is the encoded migration token of this ring.
	Token []byte
	// Staged holds intra-shard commits in stage order; Proposals holds
	// cross-shard candidates in stage order.
	Staged    []StagedMove
	Proposals []StagedMove
}

func appendStagedMoves(buf []byte, ms []StagedMove) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ms)))
	for i := range ms {
		m := &ms[i]
		buf = binary.BigEndian.AppendUint32(buf, uint32(m.VM))
		buf = binary.BigEndian.AppendUint32(buf, uint32(m.From))
		buf = binary.BigEndian.AppendUint32(buf, uint32(m.To))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.Delta))
		buf = binary.BigEndian.AppendUint32(buf, uint32(m.RAMMB))
		buf = binary.BigEndian.AppendUint32(buf, uint32(m.CPUMilli))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.NICFrom))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.NICTo))
		buf = binary.BigEndian.AppendUint32(buf, uint32(m.Hop))
		buf = binary.BigEndian.AppendUint32(buf, m.Attempt)
		buf = binary.BigEndian.AppendUint32(buf, uint32(rateEdgesSize(m.Rates)))
		buf = AppendRateEdges(buf, m.Rates)
	}
	return buf
}

func decodeStagedMoves(buf []byte) ([]StagedMove, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, ErrShortMessage
	}
	n := int(binary.BigEndian.Uint32(buf))
	buf = buf[4:]
	if n == 0 {
		return nil, buf, nil
	}
	// Each move occupies at least 56 bytes: bound-check the untrusted
	// count before sizing the allocation from it.
	if n < 0 || n > len(buf)/56 {
		return nil, nil, ErrShortMessage
	}
	out := make([]StagedMove, 0, n)
	for i := 0; i < n; i++ {
		if len(buf) < 56 {
			return nil, nil, ErrShortMessage
		}
		m := StagedMove{
			VM:       cluster.VMID(binary.BigEndian.Uint32(buf)),
			From:     cluster.HostID(int32(binary.BigEndian.Uint32(buf[4:]))),
			To:       cluster.HostID(int32(binary.BigEndian.Uint32(buf[8:]))),
			Delta:    math.Float64frombits(binary.BigEndian.Uint64(buf[12:])),
			RAMMB:    int32(binary.BigEndian.Uint32(buf[20:])),
			CPUMilli: int32(binary.BigEndian.Uint32(buf[24:])),
			NICFrom:  math.Float64frombits(binary.BigEndian.Uint64(buf[28:])),
			NICTo:    math.Float64frombits(binary.BigEndian.Uint64(buf[36:])),
			Hop:      int32(binary.BigEndian.Uint32(buf[44:])),
			Attempt:  binary.BigEndian.Uint32(buf[48:]),
		}
		rl := int(binary.BigEndian.Uint32(buf[52:]))
		buf = buf[56:]
		if len(buf) < rl {
			return nil, nil, ErrShortMessage
		}
		rates, err := DecodeRateEdges(buf[:rl])
		if err != nil {
			return nil, nil, err
		}
		m.Rates = rates
		buf = buf[rl:]
		out = append(out, m)
	}
	return out, buf, nil
}

// AppendEncode serializes the ring state onto buf for a MsgShardToken /
// MsgRingDone / MsgRingAck payload and returns the extended slice. Delta
// travels as raw float64 bits, so staged ΔC values survive the wire
// exactly — the reconciliation order depends on them. Appending lets a
// per-hop scratch buffer absorb the blob's growth as staged moves
// accumulate, instead of reallocating every visit.
func (s *RingState) AppendEncode(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.Shard))
	buf = binary.BigEndian.AppendUint32(buf, s.Round)
	buf = binary.BigEndian.AppendUint32(buf, s.Attempt)
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.Hops))
	buf = binary.BigEndian.AppendUint32(buf, uint32(s.Limit))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Token)))
	buf = append(buf, s.Token...)
	buf = appendStagedMoves(buf, s.Staged)
	buf = appendStagedMoves(buf, s.Proposals)
	return buf
}

// stagedMovesSize is the wire length of an encoded staged-move list.
func stagedMovesSize(ms []StagedMove) int {
	n := 4
	for i := range ms {
		n += 56 + rateEdgesSize(ms[i].Rates)
	}
	return n
}

// EncodedSize returns the exact length of the state's wire form.
func (s *RingState) EncodedSize() int {
	return 24 + len(s.Token) + stagedMovesSize(s.Staged) + stagedMovesSize(s.Proposals)
}

// Encode serializes the ring state into a fresh, exactly sized buffer.
func (s *RingState) Encode() []byte {
	return s.AppendEncode(make([]byte, 0, s.EncodedSize()))
}

// DecodeRingState parses an Encode payload.
func DecodeRingState(buf []byte) (*RingState, error) {
	if len(buf) < 24 {
		return nil, ErrShortMessage
	}
	s := &RingState{
		Shard:   int32(binary.BigEndian.Uint32(buf)),
		Round:   binary.BigEndian.Uint32(buf[4:]),
		Attempt: binary.BigEndian.Uint32(buf[8:]),
		Hops:    int32(binary.BigEndian.Uint32(buf[12:])),
		Limit:   int32(binary.BigEndian.Uint32(buf[16:])),
	}
	tl := int(binary.BigEndian.Uint32(buf[20:]))
	buf = buf[24:]
	if len(buf) < tl {
		return nil, ErrShortMessage
	}
	s.Token = append([]byte(nil), buf[:tl]...)
	buf = buf[tl:]
	var err error
	if s.Staged, buf, err = decodeStagedMoves(buf); err != nil {
		return nil, fmt.Errorf("ring state staged moves: %w", err)
	}
	if s.Proposals, _, err = decodeStagedMoves(buf); err != nil {
		return nil, fmt.Errorf("ring state proposals: %w", err)
	}
	return s, nil
}

// ShardAssignment is the MsgShardAssign payload: one round's host→shard
// table together with the reconciler's address, so every agent can
// classify a decision target as intra- or cross-shard and knows where to
// ship its ring's final state.
type ShardAssignment struct {
	Round          uint32
	Shards         int32
	ReconcilerAddr string
	// HostShard[h] is host h's shard; hosts beyond the table fall into
	// the last shard (mirroring shard.Partition.ShardOfHost).
	HostShard []int32
}

// ShardOfHost resolves a host against the table with the partition's
// out-of-range conventions.
func (a *ShardAssignment) ShardOfHost(h cluster.HostID) int {
	if h < 0 {
		return 0
	}
	if int(h) >= len(a.HostShard) {
		return int(a.Shards) - 1
	}
	return int(a.HostShard[h])
}

// Encode serializes the assignment.
func (a *ShardAssignment) Encode() []byte {
	buf := make([]byte, 0, 14+len(a.ReconcilerAddr)+4*len(a.HostShard))
	buf = binary.BigEndian.AppendUint32(buf, a.Round)
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.Shards))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(a.ReconcilerAddr)))
	buf = append(buf, a.ReconcilerAddr...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(a.HostShard)))
	for _, s := range a.HostShard {
		buf = binary.BigEndian.AppendUint32(buf, uint32(s))
	}
	return buf
}

// DecodeShardAssignment parses an Encode payload.
func DecodeShardAssignment(buf []byte) (*ShardAssignment, error) {
	if len(buf) < 10 {
		return nil, ErrShortMessage
	}
	a := &ShardAssignment{
		Round:  binary.BigEndian.Uint32(buf),
		Shards: int32(binary.BigEndian.Uint32(buf[4:])),
	}
	al := int(binary.BigEndian.Uint16(buf[8:]))
	buf = buf[10:]
	if len(buf) < al+4 {
		return nil, ErrShortMessage
	}
	a.ReconcilerAddr = string(buf[:al])
	buf = buf[al:]
	n := int(binary.BigEndian.Uint32(buf))
	buf = buf[4:]
	if len(buf) < 4*n {
		return nil, ErrShortMessage
	}
	a.HostShard = make([]int32, n)
	for i := 0; i < n; i++ {
		a.HostShard[i] = int32(binary.BigEndian.Uint32(buf[4*i:]))
	}
	return a, nil
}
