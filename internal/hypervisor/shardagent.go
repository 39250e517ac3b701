package hypervisor

import (
	"github.com/score-dc/score/internal/cluster"
	"github.com/score-dc/score/internal/core"
	"github.com/score-dc/score/internal/token"
)

// This file is the agent side of the sharded mode: processing one
// shard-ring token visit with the staged-overlay decision, and executing
// reconciler-validated commits. The reconciler side lives in
// reconciler.go; see doc.go for the protocol.

// commitAttempts is how many times a commit-path round trip
// (MsgReconcileCommit, MsgMigrate) is re-sent before giving up — each
// re-send carries the same ReqID, so receivers execute once and replay
// the recorded response to the duplicates.
const commitAttempts = 3

// ringOverlay is a visit-scoped index of a ring's staged moves: VM
// locations (last staged move wins) and per-host deltas of free slots,
// RAM, CPU and NIC load. It is built once per token visit, so peer
// resolution and capacity adjustment are O(1) instead of rescanning the
// staged list. It has core.AllocView's shape: one shared placement (here
// the registry's answers, there the cluster's table), read as it stands,
// plus an overlay of the ring's own staged moves and nothing else.
// Proposals are not folded: they are queued, not applied, exactly as in
// the Coordinator's view semantics.
type ringOverlay struct {
	loc  map[cluster.VMID]cluster.HostID
	room map[cluster.HostID]core.Room
}

func newRingOverlay(st *RingState) *ringOverlay {
	o := &ringOverlay{
		loc:  make(map[cluster.VMID]cluster.HostID, len(st.Staged)),
		room: make(map[cluster.HostID]core.Room),
	}
	for _, m := range st.Staged {
		o.loc[m.VM] = m.To
		o.room[m.To] = plus(o.room[m.To], moved(-1, int(m.RAMMB), int(m.CPUMilli), m.NICTo))
		o.room[m.From] = plus(o.room[m.From], moved(1, int(m.RAMMB), int(m.CPUMilli), m.NICFrom))
	}
	return o
}

// moved is the change to a host's room when a VM of ram MiB and cpu
// millicores arrives (sign −1) or leaves (+1), with NIC-load change nic.
func moved(sign, ram, cpu int, nic float64) core.Room {
	return core.Room{Slots: sign, RAMMB: sign * ram, CPUMilli: sign * cpu, NICLoad: nic}
}

// plus is r with the free room and NIC load of d added.
func plus(r, d core.Room) core.Room {
	r.Slots, r.RAMMB, r.CPUMilli, r.NICLoad = r.Slots+d.Slots, r.RAMMB+d.RAMMB, r.CPUMilli+d.CPUMilli, r.NICLoad+d.NICLoad
	return r
}

// processShardToken runs one sharded-ring visit: decode the ring state,
// decide with the staged overlay, and either forward the token to the
// holder's ring successor or — when the pass completes — ship the final
// state to the reconciler.
func (a *Agent) processShardToken(m Message) {
	st, err := DecodeRingState(m.Payload)
	if err != nil {
		return
	}
	tok, err := token.Decode(st.Token)
	if err != nil {
		return
	}
	holder := m.VM

	a.mu.Lock()
	rec := a.vms[holder]
	asg := a.assign
	closed := a.closed
	a.mu.Unlock()
	if closed || asg == nil || asg.Round != st.Round {
		return // stale round: let the reconciler time the ring out
	}

	// The holder's position resolves through the overlay: an earlier
	// visit of this ring may have staged it away even though the record
	// stays here until the merge executes.
	overlay := newRingOverlay(st)
	holderHost := a.cfg.HostID
	if h, ok := overlay.loc[holder]; ok {
		holderHost = h
	}

	// Nothing executes during a round. Capacity probes answer with
	// round-start truth, adjusted by the ring's staged moves as a
	// Coordinator view is; an intra-shard winner is staged into the ring
	// state, a cross-shard winner queued as a proposal for the reconciler.
	// A holder this agent does not host has no row, hence no move.
	ev := TokenEvent{Holder: holder, From: holderHost, Target: cluster.NoHost}
	if dec, v, ok := a.bestMove(holder, holderHost, rec, overlay); ok {
		// st.Hops is still the pre-visit count: the 0-based hop index.
		mv := StagedMove{
			VM: holder, From: holderHost, To: dec.Target, Delta: dec.Delta,
			RAMMB: int32(rec.ramMB), CPUMilli: int32(rec.cpuMilli),
			NICFrom: -v.need(holderHost).Shift(), NICTo: v.need(dec.Target).Shift(),
			Hop: st.Hops, Attempt: st.Attempt, Rates: rec.rates,
		}
		if asg.ShardOfHost(dec.Target) == int(st.Shard) {
			st.Staged = append(st.Staged, mv)
			ev.Migrated = true
		} else {
			st.Proposals = append(st.Proposals, mv)
		}
		ev.Target, ev.Delta = dec.Target, dec.Delta
	}

	if a.onShardToken != nil {
		a.onShardToken(int(st.Shard), ev)
	}

	// Forward in ring order; the token itself is unchanged by a visit.
	st.Hops++
	next, ok := tok.Successor(holder)
	done := st.Hops >= st.Limit || !ok || next == holder
	if !done {
		if addr, ok := a.reg.Lookup(next); ok {
			// One encode serves both sends: the forwarded token and the
			// progress ack carry the identical post-visit state, and
			// neither recipient mutates the payload bytes.
			blob := st.Encode()
			if a.tr.Send(addr, Message{Type: MsgShardToken, VM: next, Payload: blob}) == nil {
				// Ack the visit so the reconciler's ring copy advances:
				// if the forwarded token is lost, the ring regenerates
				// from exactly this state, resuming at next.
				_ = a.tr.Send(asg.ReconcilerAddr, Message{Type: MsgRingAck, VM: next, Host: a.cfg.HostID, Payload: blob})
				return
			}
		}
		// No route to the next holder: close the ring early rather than
		// stranding its staged state.
	}
	_ = a.tr.Send(asg.ReconcilerAddr, Message{Type: MsgRingDone, VM: holder, Host: a.cfg.HostID, Payload: st.Encode()})
}

// processReconcileCommit executes one reconciler-validated migration:
// ship the VM record to the target dom0 named in the payload, as decide
// does in the global ring, then report the outcome.
func (a *Agent) processReconcileCommit(m Message) {
	// A duplicated commit frame must not migrate the VM twice: replay
	// the recorded outcome (or drop the duplicate while the original is
	// still executing — its response answers the same ReqID).
	key := commitKey{addr: m.ReplyTo, id: m.ReqID}
	if resp, dup := a.dedupClaim(key); dup {
		if resp != nil {
			_ = a.tr.Send(m.ReplyTo, *resp)
		}
		return
	}
	resp := Message{Type: MsgReconcileResp, ReqID: m.ReqID, VM: m.VM, Host: cluster.NoHost}
	targetAddr := string(m.Payload)
	a.mu.Lock()
	rec, ok := a.vms[m.VM]
	a.mu.Unlock()
	if ok && targetAddr != "" && a.migrate(m.VM, rec, targetAddr) {
		resp.Host, resp.FreeSlots = m.Host, 1
	}
	a.dedupStore(key, resp)
	_ = a.tr.Send(m.ReplyTo, resp)
}
