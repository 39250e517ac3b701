package hypervisor

import (
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// tcpPair wires two pooled TCP endpoints on loopback and returns them
// with a channel of b's received messages.
func tcpPair(t *testing.T, cfg TCPConfig) (a, b *TCPTransport, recv chan Message) {
	t.Helper()
	recv = make(chan Message, 64)
	var err error
	b, err = NewTCPTransportConfig("127.0.0.1:0", func(from string, m Message) { recv <- m }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err = NewTCPTransportConfig("127.0.0.1:0", func(string, Message) {}, cfg)
	if err != nil {
		_ = b.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b, recv
}

func awaitMsgs(t *testing.T, recv chan Message, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-recv:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out after %d of %d messages", i, n)
		}
	}
}

// TestTCPPoolReusesConnections: sequential sends to one peer must ride a
// single dialed connection, and every frame must still arrive.
func TestTCPPoolReusesConnections(t *testing.T) {
	a, b, recv := tcpPair(t, TCPConfig{})
	const n = 32
	for i := 0; i < n; i++ {
		if err := a.Send(b.Addr(), Message{Type: MsgToken, VM: 1}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	awaitMsgs(t, recv, n)
	st := a.Stats()
	if st.Sends != n {
		t.Fatalf("recorded %d sends, want %d", st.Sends, n)
	}
	if st.Dials != 1 {
		t.Fatalf("sequential sends dialed %d times, want 1", st.Dials)
	}
	if st.Reused != n-1 {
		t.Fatalf("reused %d connections, want %d", st.Reused, n-1)
	}
}

// TestTCPPoolIdleClose: a parked connection must be closed after the
// idle timeout, and the next send must dial fresh (not write into a
// dead socket and lose the frame).
func TestTCPPoolIdleClose(t *testing.T) {
	a, b, recv := tcpPair(t, TCPConfig{IdleTimeout: 30 * time.Millisecond})
	if err := a.Send(b.Addr(), Message{Type: MsgToken, VM: 1}); err != nil {
		t.Fatal(err)
	}
	awaitMsgs(t, recv, 1)
	// Wait for at least one janitor sweep past the idle timeout.
	deadline := time.Now().Add(5 * time.Second)
	for {
		a.mu.Lock()
		idle := len(a.idle[b.Addr()])
		a.mu.Unlock()
		if idle == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle connection never closed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := a.Send(b.Addr(), Message{Type: MsgToken, VM: 2}); err != nil {
		t.Fatal(err)
	}
	awaitMsgs(t, recv, 1)
	if st := a.Stats(); st.Dials != 2 {
		t.Fatalf("send after idle close dialed %d times total, want 2", st.Dials)
	}
}

// TestTCPPoolConcurrentSends: simultaneous sends to one target must each
// get their own connection (the idle cap bounds retention, not
// concurrency), deliver every frame, and park at most MaxIdlePerHost
// connections afterwards.
func TestTCPPoolConcurrentSends(t *testing.T) {
	a, b, recv := tcpPair(t, TCPConfig{MaxIdlePerHost: 2})
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = a.Send(b.Addr(), Message{Type: MsgToken, VM: 1})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent send %d: %v", i, err)
		}
	}
	awaitMsgs(t, recv, n)
	a.mu.Lock()
	idle := len(a.idle[b.Addr()])
	a.mu.Unlock()
	if idle > 2 {
		t.Fatalf("%d idle connections parked, cap is 2", idle)
	}
}

// TestTCPPoolDetectsCrashedPeer: after the peer shuts down, a send must
// surface an error — the parked connection's liveness probe sees the
// queued FIN and drains it, and the fresh dial fails — instead of
// "succeeding" into a half-open socket and silently losing the frame
// (the reconciler's eviction fast path keys on exactly this error).
func TestTCPPoolDetectsCrashedPeer(t *testing.T) {
	a, b, recv := tcpPair(t, TCPConfig{})
	addr := b.Addr()
	if err := a.Send(addr, Message{Type: MsgToken, VM: 1}); err != nil {
		t.Fatal(err)
	}
	awaitMsgs(t, recv, 1)
	_ = b.Close()
	// Wait for the loopback FIN to land on the parked connection — a read
	// of a socket the peer never writes to returns only then, and EOF
	// stays queued for the probe — then require the very next send to
	// fail: the probe must reject the parked connection (a write into it
	// would "succeed" locally) and the fresh dial must be refused. A
	// retry loop that tolerated interim successes would let an inert
	// probe pass on the eventual post-RST write error.
	a.mu.Lock()
	parked := a.idle[addr][0].c
	a.mu.Unlock()
	_ = parked.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := parked.Read(make([]byte, 1)); err == nil || os.IsTimeout(err) {
		t.Fatalf("parked connection after the peer closed: read error %v, want EOF or a reset", err)
	}
	_ = parked.SetReadDeadline(time.Time{})
	if err := a.Send(addr, Message{Type: MsgToken, VM: 2}); err == nil {
		t.Fatal("send to a crashed peer reported success; liveness probe inert")
	}
}

// TestTCPPoolNoGoroutineLeak: a pooled transport pair with parked
// connections must release every goroutine (janitor, accept loop,
// per-connection handlers) on Close.
func TestTCPPoolNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	recv := make(chan Message, 8)
	b, err := NewTCPTransport("127.0.0.1:0", func(string, Message) { recv <- Message{} })
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewTCPTransport("127.0.0.1:0", func(string, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := a.Send(b.Addr(), Message{Type: MsgToken}); err != nil {
			t.Fatal(err)
		}
	}
	awaitMsgs(t, recv, 4)
	_ = a.Close()
	_ = b.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
