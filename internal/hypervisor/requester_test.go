package hypervisor

import (
	"fmt"
	"testing"
	"time"
)

// requesterHarness wires a requester to a memhub endpoint plus a peer
// whose handler the test controls.
type requesterHarness struct {
	rq   requester
	hub  *MemHub
	peer Transport
	// inbound receives every request the peer sees.
	inbound chan Message
}

func newRequesterHarness(t *testing.T, timeout time.Duration) *requesterHarness {
	t.Helper()
	h := &requesterHarness{hub: NewMemHub(), inbound: make(chan Message, 16)}
	me, err := h.hub.NewEndpoint("me", func(from string, m Message) { h.rq.dispatch(m) })
	if err != nil {
		t.Fatal(err)
	}
	peer, err := h.hub.NewEndpoint("peer", func(from string, m Message) { h.inbound <- m })
	if err != nil {
		t.Fatal(err)
	}
	h.peer = peer
	h.rq.bind(me, timeout)
	t.Cleanup(func() { _ = me.Close(); _ = peer.Close() })
	return h
}

func (h *requesterHarness) pendingLen() int {
	h.rq.mu.Lock()
	defer h.rq.mu.Unlock()
	return len(h.rq.pending)
}

// TestRequesterTimeoutReleasesPending: a request whose peer never replies
// must return a timeout error and leave no pending-channel entry behind —
// the leak a long-lived reconciler probing dead dom0s cannot afford.
func TestRequesterTimeoutReleasesPending(t *testing.T) {
	h := newRequesterHarness(t, 20*time.Millisecond)
	_, err := h.rq.request("peer", Message{Type: MsgCapacityReq, VM: 1})
	if err == nil {
		t.Fatal("request to a silent peer succeeded")
	}
	if n := h.pendingLen(); n != 0 {
		t.Fatalf("%d pending entries leaked after timeout", n)
	}
	// A send failure (unknown address) must release the entry too.
	if _, err := h.rq.request("no-such-endpoint", Message{Type: MsgCapacityReq, VM: 1}); err == nil {
		t.Fatal("request to an unregistered address succeeded")
	}
	if n := h.pendingLen(); n != 0 {
		t.Fatalf("%d pending entries leaked after send failure", n)
	}
}

// TestRequesterLateReplyNotMiscorrelated: a reply arriving after its
// request timed out must be discarded — it must neither resurrect the
// dead request nor be delivered to the next round trip.
func TestRequesterLateReplyNotMiscorrelated(t *testing.T) {
	h := newRequesterHarness(t, 20*time.Millisecond)

	// First round trip: the peer swallows the request.
	if _, err := h.rq.request("peer", Message{Type: MsgCapacityReq, VM: 7}); err == nil {
		t.Fatal("request to a swallowing peer succeeded")
	}
	var stale Message
	select {
	case req := <-h.inbound:
		stale = Message{Type: MsgCapacityResp, ReqID: req.ReqID, Host: 99, FreeSlots: 99}
	case <-time.After(time.Second):
		t.Fatal("peer never saw the request")
	}

	// The late reply finds no pending request.
	if h.rq.dispatch(stale) {
		t.Fatal("late reply matched a pending request after timeout")
	}

	// Second round trip: the peer answers promptly and ALSO replays the
	// stale response first; the requester must return the fresh answer.
	done := make(chan error, 1)
	go func() {
		resp, err := h.rq.request("peer", Message{Type: MsgCapacityReq, VM: 8})
		if err != nil {
			done <- err
			return
		}
		if resp.Host != 5 || resp.FreeSlots != 2 {
			done <- fmt.Errorf("got response %+v, want the fresh Host=5/FreeSlots=2", resp)
			return
		}
		done <- nil
	}()
	select {
	case req := <-h.inbound:
		if req.ReqID == stale.ReqID {
			t.Fatal("requester reused the timed-out ReqID")
		}
		h.rq.dispatch(stale) // straggler arrives first...
		h.rq.dispatch(Message{Type: MsgCapacityResp, ReqID: req.ReqID, Host: 5, FreeSlots: 2})
	case <-time.After(time.Second):
		t.Fatal("peer never saw the second request")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("second round trip stalled")
	}
}

// TestRequesterRetryKeepsReqID: requestRetry must re-send the identical
// stamped request — same ReqID — so the receiver's dedup cache can
// recognize the retry, and must return the response once any attempt's
// reply lands.
func TestRequesterRetryKeepsReqID(t *testing.T) {
	h := newRequesterHarness(t, 30*time.Millisecond)
	done := make(chan Message, 1)
	go func() {
		resp, err := h.rq.requestRetry("peer", Message{Type: MsgCapacityReq, VM: 2}, 3)
		if err == nil {
			done <- resp
		}
	}()
	// Swallow the first attempt, answer the second.
	first := <-h.inbound
	var second Message
	select {
	case second = <-h.inbound:
	case <-time.After(time.Second):
		t.Fatal("no retry arrived after the first attempt timed out")
	}
	if second.ReqID != first.ReqID {
		t.Fatalf("retry re-stamped the request: ReqID %d vs %d", second.ReqID, first.ReqID)
	}
	h.rq.dispatch(Message{Type: MsgCapacityResp, ReqID: second.ReqID, Host: 3, FreeSlots: 1})
	select {
	case resp := <-done:
		if resp.Host != 3 {
			t.Fatalf("unexpected response %+v", resp)
		}
	case <-time.After(time.Second):
		t.Fatal("retried round trip stalled")
	}
	if n := h.pendingLen(); n != 0 {
		t.Fatalf("%d pending entries leaked after retry", n)
	}

	// All attempts exhausted: the call errors and leaks nothing.
	if _, err := h.rq.requestRetry("peer", Message{Type: MsgCapacityReq, VM: 4}, 2); err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if n := h.pendingLen(); n != 0 {
		t.Fatalf("%d pending entries leaked after exhausted retries", n)
	}
}

// TestRequesterDuplicateResponseDropped: a duplicated response frame for
// an in-flight request must not wedge the dispatcher or overwrite the
// first answer.
func TestRequesterDuplicateResponseDropped(t *testing.T) {
	h := newRequesterHarness(t, time.Second)
	done := make(chan Message, 1)
	go func() {
		resp, err := h.rq.request("peer", Message{Type: MsgCapacityReq, VM: 3})
		if err == nil {
			done <- resp
		}
	}()
	req := <-h.inbound
	first := Message{Type: MsgCapacityResp, ReqID: req.ReqID, Host: 4}
	h.rq.dispatch(first)
	h.rq.dispatch(Message{Type: MsgCapacityResp, ReqID: req.ReqID, Host: 13}) // duplicate/conflicting frame
	select {
	case resp := <-done:
		if resp.Host != 4 {
			t.Fatalf("duplicate response overtook the original: %+v", resp)
		}
	case <-time.After(time.Second):
		t.Fatal("round trip stalled")
	}
	if n := h.pendingLen(); n != 0 {
		t.Fatalf("%d pending entries leaked", n)
	}
}
