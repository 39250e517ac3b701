package hypervisor

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// probeTimeout bounds each attempt of a round trip; agents and the
// reconciler copy it, and in-package tests lower the copy before Start.
const probeTimeout = 2 * time.Second

// requester correlates one-shot request/response round trips over a
// Transport: it stamps outbound requests with a fresh ReqID and the
// local reply address, and routes inbound responses to the waiting
// caller. Both the dom0 agent and the reconciler embed it, so the two
// endpoints share one probe implementation.
type requester struct {
	tr      Transport
	timeout time.Duration

	mu      sync.Mutex
	pending map[uint32]chan Message
	seq     atomic.Uint32
}

// bind attaches the transport and round-trip timeout; it must run before
// the first request.
func (r *requester) bind(tr Transport, timeout time.Duration) {
	r.tr = tr
	r.timeout = timeout
	r.mu.Lock()
	if r.pending == nil {
		r.pending = make(map[uint32]chan Message)
	}
	r.mu.Unlock()
}

// dispatch routes a response to its waiting request, reporting whether a
// request was found. Call it from the transport handler for every
// response-typed message.
func (r *requester) dispatch(m Message) bool {
	r.mu.Lock()
	ch, ok := r.pending[m.ReqID]
	r.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case ch <- m:
	default:
	}
	return true
}

// request performs one correlated round trip.
func (r *requester) request(to string, m Message) (Message, error) {
	return r.requestRetry(to, m, 1)
}

// requestRetry performs one correlated round trip, re-sending the SAME
// stamped request (identical ReqID) up to attempts times with one
// timeout each. Retries make state-changing requests at-least-once over
// a lossy wire; the receiver's (ReplyTo, ReqID) dedup cache suppresses
// the duplicates and replays the recorded response, so the combination
// is exactly-once.
func (r *requester) requestRetry(to string, m Message, attempts int) (Message, error) {
	id := r.seq.Add(1)
	m.ReqID = id
	m.ReplyTo = r.tr.Addr()
	ch := make(chan Message, 1)
	r.mu.Lock()
	r.pending[id] = ch
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.pending, id)
		r.mu.Unlock()
	}()
	err := fmt.Errorf("hypervisor: no request attempt made")
	for i := 0; i < attempts; i++ {
		if sendErr := r.tr.Send(to, m); sendErr != nil {
			err = sendErr
			continue
		}
		select {
		case resp := <-ch:
			return resp, nil
		case <-time.After(r.timeout):
			err = fmt.Errorf("hypervisor: probe to %s timed out", to)
		}
	}
	return Message{}, err
}
