package hypervisor

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/token"
	"github.com/score-dc/score/internal/traffic"
)

// sampleMessages returns one populated Message per protocol type — the
// fuzz seed corpus and the round-trip identity fixtures.
func sampleMessages() []Message {
	rates := EncodeRateEdges([]traffic.Edge{{Peer: 2, Rate: 12.5}, {Peer: 9, Rate: 0.125}})
	ring := (&RingState{
		Shard: 1, Round: 4, Attempt: 2, Hops: 3, Limit: 9,
		Token: token.NewAtLevel([]cluster.VMID{1, 4, 7}, 3).Encode(),
		Staged: []StagedMove{{VM: 4, From: 0, To: 2, Delta: math.Pi, RAMMB: 512, CPUMilli: 750,
			NICFrom: -3, NICTo: 3.25, Rates: []traffic.Edge{{Peer: 7, Rate: 3}}}},
		Proposals: []StagedMove{{VM: 7, From: 2, To: 11, Delta: -1.5, RAMMB: 1024}},
	}).Encode()
	asg := (&ShardAssignment{Round: 4, Shards: 2, ReconcilerAddr: "rec", HostShard: []int32{0, 0, 1, 1}}).Encode()
	tok := token.NewAtLevel([]cluster.VMID{3, 5}, 2).Encode()
	return []Message{
		{Type: MsgToken, VM: 3, Payload: tok},
		{Type: MsgCapacityReq, ReqID: 2, VM: 5, RAMMB: 1024, ReplyTo: "dom0-2"},
		{Type: MsgCapacityResp, ReqID: 2, Host: 4, FreeSlots: 3, FreeRAMMB: 8192, FreeCPUMilli: 1500,
			CPUMilli: 4000, NICMbps: 1000, NICLoad: 912.5},
		{Type: MsgMigrate, ReqID: 3, VM: 5, RAMMB: 1024, CPUMilli: 500, ReplyTo: "dom0-3", Payload: rates},
		{Type: MsgMigrateAck, ReqID: 3, VM: 5, Host: 4},
		{Type: MsgShardAssign, ReqID: 4, Host: 2, ReplyTo: "rec", Payload: asg},
		{Type: MsgShardAssignAck, ReqID: 4, Host: 2},
		{Type: MsgShardToken, VM: 1, Payload: ring},
		{Type: MsgRingDone, VM: 7, Host: 11, Payload: ring},
		{Type: MsgReconcileCommit, ReqID: 5, VM: 4, Host: 2, ReplyTo: "rec", Payload: []byte("dom0-2")},
		{Type: MsgReconcileResp, ReqID: 5, VM: 4, Host: 2, FreeSlots: 1},
		{Type: MsgRingAck, VM: 4, Host: 0, Payload: ring},
	}
}

// TestMessageRoundTripAllTypes: encode→decode must be identity for every
// protocol message type, field for field.
func TestMessageRoundTripAllTypes(t *testing.T) {
	for _, m := range sampleMessages() {
		got, err := DecodeMessage(m.Encode())
		if err != nil {
			t.Fatalf("type %d: decode: %v", m.Type, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("type %d round trip:\n got %+v\nwant %+v", m.Type, got, m)
		}
		if m.EncodedSize() != len(m.Encode()) {
			t.Fatalf("type %d: EncodedSize %d != wire length %d", m.Type, m.EncodedSize(), len(m.Encode()))
		}
	}
}

// TestCodecTruncatedAndOversized: malformed frames — truncated at every
// byte boundary, or declaring payload/count fields far beyond the buffer
// — must return an error, never panic, for every wire codec.
func TestCodecTruncatedAndOversized(t *testing.T) {
	msgs := sampleMessages()
	for _, m := range msgs {
		full := m.Encode()
		for cut := 0; cut < len(full); cut++ {
			if _, err := DecodeMessage(full[:cut]); err == nil {
				t.Fatalf("type %d: truncation at %d of %d accepted", m.Type, cut, len(full))
			}
		}
	}

	ringFull := (&RingState{Shard: 1, Round: 2, Limit: 3,
		Token:  token.NewAtLevel([]cluster.VMID{1, 2, 3}, 1).Encode(),
		Staged: []StagedMove{{VM: 1, From: 0, To: 1, Delta: 1, RAMMB: 64, CPUMilli: 250, NICFrom: -2, NICTo: 2}},
	}).Encode()
	for cut := 0; cut < len(ringFull); cut++ {
		if _, err := DecodeRingState(ringFull[:cut]); err == nil {
			t.Fatalf("ring state truncation at %d of %d accepted", cut, len(ringFull))
		}
	}
	asgFull := (&ShardAssignment{Round: 1, Shards: 2, ReconcilerAddr: "r", HostShard: []int32{0, 1}}).Encode()
	for cut := 0; cut < len(asgFull); cut++ {
		if _, err := DecodeShardAssignment(asgFull[:cut]); err == nil {
			t.Fatalf("assignment truncation at %d of %d accepted", cut, len(asgFull))
		}
	}
	ratesFull := EncodeRateEdges([]traffic.Edge{{Peer: 1, Rate: 2}})
	for cut := 0; cut < len(ratesFull); cut++ {
		if _, err := DecodeRateEdges(ratesFull[:cut]); err == nil {
			t.Fatalf("rate table truncation at %d of %d accepted", cut, len(ratesFull))
		}
	}

	oversized := [][]byte{}
	// Message declaring a payload far past the end of the buffer.
	hugeMsg := Message{Type: MsgToken, Payload: []byte{1}}
	huge := hugeMsg.Encode()
	binary.BigEndian.PutUint32(huge[len(huge)-5:], 1<<30)
	oversized = append(oversized, huge)
	// Ring state whose token length exceeds the frame.
	rs := (&RingState{Shard: 1, Round: 1, Limit: 1, Token: []byte{1, 2, 3, 4}}).Encode()
	binary.BigEndian.PutUint32(rs[20:], 1<<30)
	oversized = append(oversized, nil) // placeholder keeps indices aligned
	if _, err := DecodeRingState(rs); err == nil {
		t.Fatal("ring state with oversized token length accepted")
	}
	// Staged-move count far beyond the remaining bytes.
	rs2 := (&RingState{Shard: 1, Round: 1, Limit: 1, Token: nil}).Encode()
	binary.BigEndian.PutUint32(rs2[24:], 1<<31-1)
	if _, err := DecodeRingState(rs2); err == nil {
		t.Fatal("ring state with oversized staged count accepted")
	}
	// Assignment whose table length is a lie.
	asg2 := (&ShardAssignment{Round: 1, Shards: 1, HostShard: []int32{0}}).Encode()
	binary.BigEndian.PutUint32(asg2[10:], 1<<30)
	if _, err := DecodeShardAssignment(asg2); err == nil {
		t.Fatal("assignment with oversized table accepted")
	}
	for _, buf := range oversized {
		if buf == nil {
			continue
		}
		if _, err := DecodeMessage(buf); err == nil {
			t.Fatal("message with oversized payload length accepted")
		}
	}
}

// TestAppendEncodeReusesFrameBuffer: encoding a shard-token frame into a
// buffer that has already grown to size must not allocate — the property
// the TCP transport's frame pool relies on so the per-hop RingState blob
// stops reallocating as staged moves accumulate.
func TestAppendEncodeReusesFrameBuffer(t *testing.T) {
	st := &RingState{
		Shard: 1, Round: 2, Attempt: 1, Hops: 5, Limit: 16,
		Token: token.NewAtLevel([]cluster.VMID{1, 2, 3, 4}, 3).Encode(),
		Staged: []StagedMove{
			{VM: 1, From: 0, To: 2, Delta: 3.5, RAMMB: 512, Rates: []traffic.Edge{{Peer: 2, Rate: 7}, {Peer: 3, Rate: 1}}},
			{VM: 3, From: 1, To: 2, Delta: 1.25, RAMMB: 256, Rates: []traffic.Edge{{Peer: 1, Rate: 4}}},
		},
		Proposals: []StagedMove{{VM: 4, From: 2, To: 9, Delta: 9, RAMMB: 128}},
	}
	m := Message{Type: MsgShardToken, VM: 1, Payload: st.Encode()}
	if got, want := st.EncodedSize(), len(m.Payload); got != want {
		t.Fatalf("RingState.EncodedSize %d != wire length %d", got, want)
	}
	frame := make([]byte, 0, 4+m.EncodedSize())
	if allocs := testing.AllocsPerRun(100, func() {
		buf := frame[:0]
		buf = binary.BigEndian.AppendUint32(buf, uint32(m.EncodedSize()))
		buf = m.AppendEncode(buf)
		_ = buf
	}); allocs != 0 {
		t.Fatalf("frame encode into a grown buffer allocates %v times", allocs)
	}
	state := make([]byte, 0, st.EncodedSize())
	if allocs := testing.AllocsPerRun(100, func() {
		_ = st.AppendEncode(state[:0])
	}); allocs != 0 {
		t.Fatalf("ring-state encode into a grown buffer allocates %v times", allocs)
	}
}

// TestReadFrameOversizedRejected: the TCP framing must refuse frames
// whose declared length exceeds the corruption guard instead of
// allocating gigabytes.
func TestReadFrameOversizedRejected(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<27) // past the 64 MiB guard
	if _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversized frame accepted")
	}
	binary.BigEndian.PutUint32(hdr[:], 100) // declared 100, delivers 0
	if _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("short frame accepted")
	}
}

// FuzzMessageDecode: arbitrary bytes must never panic the frame decoder,
// and anything it accepts must survive a re-encode→decode round trip
// unchanged (the decoder normalizes nothing). The NIC fields are raw
// float64 bits and may be NaN, which reflect.DeepEqual never equates, so
// the round trip is compared on the wire.
func FuzzMessageDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(m.Encode())
	}
	// Types outside the protocol decode too; both endpoints ignore them.
	for _, ty := range []MsgType{0, MsgRingAck + 1} {
		f.Add((&Message{Type: ty, ReqID: 1, VM: 5, ReplyTo: "dom0-1"}).Encode())
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		again, err := DecodeMessage(m.Encode())
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if !bytes.Equal(again.Encode(), m.Encode()) {
			t.Fatalf("round trip not identity:\n got %+v\nwant %+v", again, m)
		}
	})
}

// FuzzRingStateDecode: the staged-state blob is the protocol's most
// structured payload; arbitrary bytes must never panic it, and accepted
// states must round trip. (Rate rows are canonicalized — sorted, unique
// peers — on decode, so the re-encoded form is compared after a second
// decode.)
func FuzzRingStateDecode(f *testing.F) {
	f.Add((&RingState{Shard: 1, Round: 2, Attempt: 1, Hops: 1, Limit: 4,
		Token: token.NewAtLevel([]cluster.VMID{1, 2}, 2).Encode(),
		Staged: []StagedMove{{VM: 1, From: 0, To: 1, Delta: 2.5, RAMMB: 128, CPUMilli: 500, NICFrom: 0.5, NICTo: -1,
			Rates: []traffic.Edge{{Peer: 2, Rate: 1}}}},
	}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeRingState(data)
		if err != nil {
			return
		}
		again, err := DecodeRingState(st.Encode())
		if err != nil {
			t.Fatalf("re-decode of accepted ring state failed: %v", err)
		}
		// Compare wire bytes, not structs: ΔC and rates are raw float64
		// bits and may legitimately be NaN, which reflect.DeepEqual
		// never equates.
		if !bytes.Equal(again.Encode(), st.Encode()) {
			t.Fatalf("ring state round trip not identity:\n got %+v\nwant %+v", again, st)
		}
	})
}

// FuzzShardAssignmentDecode: the host→shard table decoder must be
// panic-free and identity on accepted inputs.
func FuzzShardAssignmentDecode(f *testing.F) {
	f.Add((&ShardAssignment{Round: 3, Shards: 4, ReconcilerAddr: "rec", HostShard: []int32{0, 1, 2, 3}}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeShardAssignment(data)
		if err != nil {
			return
		}
		again, err := DecodeShardAssignment(a.Encode())
		if err != nil {
			t.Fatalf("re-decode of accepted assignment failed: %v", err)
		}
		if !reflect.DeepEqual(again, a) {
			t.Fatalf("assignment round trip not identity:\n got %+v\nwant %+v", again, a)
		}
	})
}
