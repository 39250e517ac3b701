package hypervisor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/traffic"
)

// MsgType discriminates protocol messages.
type MsgType uint8

// Protocol message types (Section V-B2, V-B5). Section V-B4's location
// request has none: the Registry names the dom0 hosting a VM and that
// dom0's server, which is all its response would carry (package doc).
const (
	// MsgToken carries the encoded migration token; Message.VM is the
	// holder the token is addressed to.
	MsgToken MsgType = iota + 1
	// MsgCapacityReq asks whether the responder can host a VM needing
	// Message.RAMMB.
	MsgCapacityReq
	// MsgCapacityResp reports free slots and RAM ("how many more VMs it
	// is able to host and the amount of RAM it has available"), and the
	// rest of core.Room: free CPU, CPU and NIC capacity, NIC load.
	MsgCapacityResp
	// MsgMigrate transfers a VM record to the target dom0, standing in
	// for the Xen live-migration data path.
	MsgMigrate
	// MsgMigrateAck confirms the transfer.
	MsgMigrateAck
	// MsgShardAssign pushes a round's host→shard table (an encoded
	// ShardAssignment) from the reconciler to a dom0 agent.
	MsgShardAssign
	// MsgShardAssignAck confirms the assignment took effect.
	MsgShardAssignAck
	// MsgShardToken carries one shard ring's token plus its staged
	// RingState; Message.VM is the holder the visit is addressed to.
	MsgShardToken
	// MsgRingDone ships a completed ring's final RingState (staged
	// intra-shard moves and cross-shard proposals) to the reconciler.
	MsgRingDone
	// MsgReconcileCommit asks the dom0 hosting Message.VM to execute a
	// reconciler-validated migration to Message.Host; the payload names
	// the target dom0's address.
	MsgReconcileCommit
	// MsgReconcileResp reports the commit outcome: FreeSlots is 1 on
	// success, 0 on failure; Host echoes the landing host.
	MsgReconcileResp
	// MsgRingAck is a per-visit progress report from a dom0 agent to the
	// reconciler: the payload carries the post-visit RingState, VM the
	// next token holder, Host the reporting server. It is the copy the
	// reconciler regenerates a lost ring from — resuming at the last
	// acked handoff with staged moves intact.
	MsgRingAck
)

// Message is the fixed-header wire unit exchanged between dom0 agents.
type Message struct {
	Type  MsgType
	ReqID uint32
	VM    cluster.VMID
	Host  cluster.HostID
	// FreeSlots, FreeRAMMB, FreeCPUMilli, NICMbps and NICLoad are
	// capacity-response fields. RAMMB is the demand in a capacity request
	// or VM transfer; CPUMilli the CPU demand in a VM transfer, and the
	// host's CPU capacity in a capacity response.
	FreeSlots, FreeRAMMB, FreeCPUMilli int32
	RAMMB, CPUMilli                    int32
	NICMbps, NICLoad                   float64
	// ReplyTo is the requester's listening address for request types;
	// one-shot TCP connections cannot carry the response back.
	ReplyTo string
	// Payload carries the encoded token (MsgToken) or the VM's
	// serialized peer-rate table (MsgMigrate).
	Payload []byte
}

const fixedHeaderBytes = 1 + 8*4 + 2*8 + 2 // through reply-to length

// ErrShortMessage reports a truncated frame.
var ErrShortMessage = errors.New("hypervisor: short message")

// EncodedSize returns the exact length of the message's wire form.
func (m *Message) EncodedSize() int {
	return fixedHeaderBytes + len(m.ReplyTo) + 4 + len(m.Payload)
}

// AppendEncode serializes the message onto buf and returns the extended
// slice — the frame-reuse form: a caller holding a scratch buffer (the
// TCP transport's pooled frame, the agent's per-hop ring blob) encodes
// without reallocating once the buffer has grown to the message size.
func (m *Message) AppendEncode(buf []byte) []byte {
	buf = append(buf, byte(m.Type))
	buf = binary.BigEndian.AppendUint32(buf, m.ReqID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.VM))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.Host))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.FreeSlots))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.FreeRAMMB))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.FreeCPUMilli))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.RAMMB))
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.CPUMilli))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.NICMbps))
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.NICLoad))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.ReplyTo)))
	buf = append(buf, m.ReplyTo...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Payload)))
	buf = append(buf, m.Payload...)
	return buf
}

// Encode serializes the message.
func (m *Message) Encode() []byte {
	return m.AppendEncode(make([]byte, 0, m.EncodedSize()))
}

// DecodeMessage parses one frame.
func DecodeMessage(buf []byte) (Message, error) {
	if len(buf) < fixedHeaderBytes {
		return Message{}, ErrShortMessage
	}
	m := Message{
		Type:         MsgType(buf[0]),
		ReqID:        binary.BigEndian.Uint32(buf[1:]),
		VM:           cluster.VMID(binary.BigEndian.Uint32(buf[5:])),
		Host:         cluster.HostID(int32(binary.BigEndian.Uint32(buf[9:]))),
		FreeSlots:    int32(binary.BigEndian.Uint32(buf[13:])),
		FreeRAMMB:    int32(binary.BigEndian.Uint32(buf[17:])),
		FreeCPUMilli: int32(binary.BigEndian.Uint32(buf[21:])),
		RAMMB:        int32(binary.BigEndian.Uint32(buf[25:])),
		CPUMilli:     int32(binary.BigEndian.Uint32(buf[29:])),
		NICMbps:      math.Float64frombits(binary.BigEndian.Uint64(buf[33:])),
		NICLoad:      math.Float64frombits(binary.BigEndian.Uint64(buf[41:])),
	}
	rl := int(binary.BigEndian.Uint16(buf[49:]))
	off := fixedHeaderBytes
	if len(buf) < off+rl+4 {
		return Message{}, ErrShortMessage
	}
	m.ReplyTo = string(buf[off : off+rl])
	off += rl
	n := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if len(buf) < off+n {
		return Message{}, fmt.Errorf("%w: payload %d of %d bytes", ErrShortMessage, len(buf)-off, n)
	}
	if n > 0 {
		m.Payload = append([]byte(nil), buf[off:off+n]...)
	}
	return m, nil
}

// EncodeRateEdges serializes a VM's peer-rate rows (a sorted adjacency
// slice, the agent's native record format) for a MsgMigrate or staged
// ring-state payload. Rates travel as raw float64 bits: a VM record must
// survive any number of migrations — and a staged move's reconciler-side
// ΔC re-validation — without drifting from the floats the source dom0
// decided on.
func EncodeRateEdges(edges []traffic.Edge) []byte {
	return AppendRateEdges(make([]byte, 0, rateEdgesSize(edges)), edges)
}

// rateEdgesSize is the wire length of an encoded adjacency slice.
func rateEdgesSize(edges []traffic.Edge) int { return 4 + 12*len(edges) }

// AppendRateEdges is the append-style form of EncodeRateEdges, used by
// the ring-state encoder so a reused frame buffer absorbs the rate rows
// without per-move temporaries.
func AppendRateEdges(buf []byte, edges []traffic.Edge) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(edges)))
	for _, e := range edges {
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.Peer))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(e.Rate))
	}
	return buf
}

// DecodeRateEdges parses an EncodeRateEdges payload into an adjacency
// slice sorted by peer ID.
func DecodeRateEdges(buf []byte) ([]traffic.Edge, error) {
	if len(buf) < 4 {
		return nil, ErrShortMessage
	}
	n := int(binary.BigEndian.Uint32(buf))
	if len(buf) < 4+12*n {
		return nil, ErrShortMessage
	}
	out := make([]traffic.Edge, n)
	off := 4
	for i := 0; i < n; i++ {
		out[i] = traffic.Edge{
			Peer: cluster.VMID(binary.BigEndian.Uint32(buf[off:])),
			Rate: math.Float64frombits(binary.BigEndian.Uint64(buf[off+4:])),
		}
		off += 12
	}
	slices.SortStableFunc(out, traffic.CompareEdges)
	// Collapse duplicate peers last-wins; the records built from this
	// slice rely on a sorted-unique invariant for binary search.
	w := 0
	for i := range out {
		if i+1 < len(out) && out[i+1].Peer == out[i].Peer {
			continue
		}
		out[w] = out[i]
		w++
	}
	return out[:w], nil
}

// ratesToEdges converts a peer-rate map into a sorted adjacency slice.
func ratesToEdges(rates map[cluster.VMID]float64) []traffic.Edge {
	edges := make([]traffic.Edge, 0, len(rates))
	for id, r := range rates {
		edges = append(edges, traffic.Edge{Peer: id, Rate: r})
	}
	slices.SortFunc(edges, traffic.CompareEdges)
	return edges
}
