package hypervisor

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Handler consumes inbound messages; from is the sender's address when
// known (TCP connections are pooled per peer, so from identifies the
// remote socket, not a stable agent address).
type Handler func(from string, m Message)

// Transport delivers protocol messages between dom0 agents.
type Transport interface {
	// Addr is this endpoint's address, usable as a Send target by peers.
	Addr() string
	// Send delivers m to the endpoint at to.
	Send(to string, m Message) error
	// Close releases the endpoint; further Sends to it fail.
	Close() error
}

// Interface compliance checks.
var (
	_ Transport = (*memEndpoint)(nil)
	_ Transport = (*TCPTransport)(nil)
)

// MemHub is an in-process message fabric: endpoints register by address
// and exchange messages through buffered queues, preserving per-sender
// ordering. It lets the full agent protocol run deterministically in
// tests and benchmarks.
type MemHub struct {
	mu    sync.Mutex
	nodes map[string]*memEndpoint
}

// NewMemHub returns an empty hub.
func NewMemHub() *MemHub {
	return &MemHub{nodes: make(map[string]*memEndpoint)}
}

type memEndpoint struct {
	hub     *MemHub
	addr    string
	handler Handler
	ch      chan delivered
	done    chan struct{}
	wg      sync.WaitGroup
	closed  bool
}

type delivered struct {
	from string
	m    Message
}

// NewEndpoint registers an endpoint and starts its dispatch goroutine.
func (h *MemHub) NewEndpoint(addr string, handler Handler) (Transport, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.nodes[addr]; ok {
		return nil, fmt.Errorf("hypervisor: address %q already registered", addr)
	}
	ep := &memEndpoint{
		hub: h, addr: addr, handler: handler,
		ch:   make(chan delivered, 1024),
		done: make(chan struct{}),
	}
	h.nodes[addr] = ep
	ep.wg.Add(1)
	go ep.loop()
	return ep, nil
}

func (ep *memEndpoint) loop() {
	defer ep.wg.Done()
	for {
		select {
		case d := <-ep.ch:
			ep.handler(d.from, d.m)
		case <-ep.done:
			// Drain anything already queued, then exit.
			for {
				select {
				case d := <-ep.ch:
					ep.handler(d.from, d.m)
				default:
					return
				}
			}
		}
	}
}

// Addr implements Transport.
func (ep *memEndpoint) Addr() string { return ep.addr }

// Send implements Transport.
func (ep *memEndpoint) Send(to string, m Message) error {
	ep.hub.mu.Lock()
	dst, ok := ep.hub.nodes[to]
	ep.hub.mu.Unlock()
	if !ok {
		return fmt.Errorf("hypervisor: no endpoint at %q", to)
	}
	select {
	case dst.ch <- delivered{from: ep.addr, m: m}:
		return nil
	case <-dst.done:
		return fmt.Errorf("hypervisor: endpoint %q closed", to)
	}
}

// Close implements Transport.
func (ep *memEndpoint) Close() error {
	ep.hub.mu.Lock()
	if ep.closed {
		ep.hub.mu.Unlock()
		return nil
	}
	ep.closed = true
	delete(ep.hub.nodes, ep.addr)
	ep.hub.mu.Unlock()
	close(ep.done)
	ep.wg.Wait()
	return nil
}

// The TCP transport's pool settings. A connection parked idleTimeout is
// closed by the janitor, and at most maxIdlePerHost connections per
// target are kept parked. Concurrency is never limited: simultaneous
// Sends to one target each get their own connection (pooled or freshly
// dialed), and the cap only governs what is kept warm afterwards. A
// connection parked at least heartbeatIdle must prove itself end to end
// before it carries a frame: an application-level ping (zero-length
// frame) answered by the peer's pong within heartbeatTimeout. One reused
// sooner pays only the passive connAlive probe.
const (
	maxIdlePerHost   = 2
	idleTimeout      = 30 * time.Second
	heartbeatIdle    = time.Second
	heartbeatTimeout = 250 * time.Millisecond
)

// pooledConn is one idle outbound connection with its park time.
type pooledConn struct {
	c    net.Conn
	last time.Time
}

// TCPTransport is a real-socket endpoint: a listener accepts framed
// messages (the paper's "token listening server runs on a known port in
// dom0"), and Send writes one frame over a pooled connection to the
// peer — dialing only when no warm connection is available — instead of
// paying a TCP handshake per message. The pool has no settings (see
// maxIdlePerHost): idle connections are closed by a janitor after
// idleTimeout, and the transport counts its sends, dials and reuses.
type TCPTransport struct {
	ln      net.Listener
	handler Handler
	wg      sync.WaitGroup
	done    chan struct{}

	mu       sync.Mutex
	closed   bool
	idle     map[string][]pooledConn
	accepted map[net.Conn]struct{}

	sends, dials, reused, hbFails atomic.Int64
}

// NewTCPTransport listens on addr ("host:port", empty port picks one).
func NewTCPTransport(addr string, handler Handler) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("hypervisor: listen %s: %w", addr, err)
	}
	t := &TCPTransport{
		ln: ln, handler: handler,
		done:     make(chan struct{}),
		idle:     make(map[string][]pooledConn),
		accepted: make(map[net.Conn]struct{}),
	}
	t.wg.Add(2)
	go t.acceptLoop()
	go t.janitor()
	return t, nil
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			defer conn.Close()
			t.serve(conn)
		}()
	}
}

func (t *TCPTransport) serve(conn net.Conn) {
	t.mu.Lock()
	if t.closed {
		// Raced Close(): its snapshot missed this connection, so it is
		// ours to release.
		t.mu.Unlock()
		_ = conn.Close()
		return
	}
	t.accepted[conn] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	for {
		m, err := readFrame(conn)
		if err == errPing {
			// Liveness ping on a parked connection: answer on the same
			// socket so the sender's pong read proves this serve loop —
			// not just the kernel — is alive.
			if _, werr := conn.Write([]byte{pongByte}); werr != nil {
				return
			}
			continue
		}
		if err != nil {
			return
		}
		t.handler(conn.RemoteAddr().String(), m)
	}
}

// janitor sweeps the pool every half idleTimeout.
func (t *TCPTransport) janitor() {
	defer t.wg.Done()
	ticker := time.NewTicker(idleTimeout / 2)
	defer ticker.Stop()
	for {
		select {
		case now := <-ticker.C:
			t.sweep(now)
		case <-t.done:
			return
		}
	}
}

// sweep closes the pooled connections parked idleTimeout or longer as of
// now.
func (t *TCPTransport) sweep(now time.Time) {
	var stale []net.Conn
	t.mu.Lock()
	for addr, conns := range t.idle {
		keep := conns[:0]
		for _, pc := range conns {
			if now.Sub(pc.last) >= idleTimeout {
				stale = append(stale, pc.c)
			} else {
				keep = append(keep, pc)
			}
		}
		if len(keep) == 0 {
			delete(t.idle, addr)
		} else {
			t.idle[addr] = keep
		}
	}
	t.mu.Unlock()
	for _, c := range stale {
		_ = c.Close()
	}
}

// connAliveProbe bounds the liveness read on a parked connection. It
// must lie in the FUTURE: an already-expired deadline makes the runtime
// fail the Read before even attempting the socket, so a queued FIN
// would go unseen. Any future deadline suffices for detection — the
// runtime issues one non-blocking read first, which surfaces queued
// EOF/RST immediately — so the value only prices the empty-socket wait
// a healthy checkout pays, and is kept far below a dial's cost.
const connAliveProbe = 10 * time.Microsecond

// connAlive reports whether a parked connection is still usable. Peers
// never send unsolicited data on these one-way frame connections, so a
// short-deadline read either times out (alive), or surfaces the EOF/RST
// a crashed or closed peer already queued — the immediate crash
// detection a fresh dial would give: a write into a
// half-open socket would "succeed" locally and silently lose the frame,
// and worse, hide the send error the reconciler's eviction fast path
// keys on. (A peer dead without a FIN/RST — power loss, partition — is
// still invisible here; the protocol's deadlines own that case.)
func connAlive(c net.Conn) bool {
	if err := c.SetReadDeadline(time.Now().Add(connAliveProbe)); err != nil {
		return false
	}
	var b [1]byte
	_, err := c.Read(b[:])
	if err == nil {
		return false // unsolicited inbound bytes: protocol confusion, drop it
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return c.SetReadDeadline(time.Time{}) == nil
	}
	return false
}

// The heartbeat wire format: a zero-length frame is the ping, answered
// by one pongByte on the same socket. Neither can be confused with a
// real frame — frames are non-empty and strictly one-directional, and
// every pong is consumed by the heartbeat that solicited it.
var pingFrame = [4]byte{}

const pongByte = 0xa5

// errPing marks a zero-length frame on the receive path.
var errPing = fmt.Errorf("hypervisor: heartbeat ping")

// heartbeat proves a parked connection end-to-end: the ping must come
// back as a pong within heartbeatTimeout. Unlike connAlive's passive
// probe — which only surfaces a FIN/RST the peer already queued — the
// pong requires the peer's serve loop to respond, so a peer dead
// *without* a FIN (power loss, partition, hung host) is caught here
// instead of silently absorbing the next frame into a half-open socket.
func (t *TCPTransport) heartbeat(c net.Conn) bool {
	if err := c.SetDeadline(time.Now().Add(heartbeatTimeout)); err != nil {
		return false
	}
	if _, err := c.Write(pingFrame[:]); err != nil {
		return false
	}
	var b [1]byte
	if _, err := io.ReadFull(c, b[:]); err != nil || b[0] != pongByte {
		return false
	}
	return c.SetDeadline(time.Time{}) == nil
}

// getConn pops a warm, still-alive connection to addr or dials a fresh
// one; fresh reports which. Connections parked past heartbeatIdle must
// pass the end-to-end heartbeat; younger ones pay only the passive
// probe.
func (t *TCPTransport) getConn(addr string) (c net.Conn, fresh bool, err error) {
	for {
		t.mu.Lock()
		conns := t.idle[addr]
		if len(conns) == 0 {
			t.mu.Unlock()
			break
		}
		pc := conns[len(conns)-1]
		t.idle[addr] = conns[:len(conns)-1]
		t.mu.Unlock()
		if time.Since(pc.last) >= heartbeatIdle {
			if t.heartbeat(pc.c) {
				return pc.c, false, nil
			}
			t.hbFails.Add(1)
		} else if connAlive(pc.c) {
			return pc.c, false, nil
		}
		_ = pc.c.Close()
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, true, fmt.Errorf("hypervisor: dial %s: %w", addr, err)
	}
	// Kernel-level backstop for parked connections between heartbeats: a
	// peer dead without a FIN is eventually torn down by TCP keepalive
	// even if the pool never touches the connection again.
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetKeepAlive(true)
		_ = tc.SetKeepAlivePeriod(30 * time.Second)
	}
	t.dials.Add(1)
	return conn, true, nil
}

// putConn parks a connection for reuse, closing it when the transport is
// shut down or the per-target idle cap is reached.
func (t *TCPTransport) putConn(addr string, c net.Conn) {
	t.mu.Lock()
	if t.closed || len(t.idle[addr]) >= maxIdlePerHost {
		t.mu.Unlock()
		_ = c.Close()
		return
	}
	t.idle[addr] = append(t.idle[addr], pooledConn{c: c, last: time.Now()})
	t.mu.Unlock()
}

// Addr implements Transport.
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// frameBufs pools TCP frame buffers. A socket write completes before
// Send returns, so the buffer can be recycled immediately — unlike the
// in-memory hub, whose queued messages alias their payloads. The pooled
// buffer grows to the largest frame it has carried, so the per-hop
// RingState blob stops reallocating as staged moves accumulate.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// Send implements Transport: one length-prefixed frame over a pooled
// connection, dialed on demand. A write error on a reused connection
// (the peer may have closed it while parked) retries once over a fresh
// dial; a fresh connection's write error is final.
func (t *TCPTransport) Send(to string, m Message) error {
	t.sends.Add(1)
	bp := frameBufs.Get().(*[]byte)
	defer frameBufs.Put(bp)
	buf := (*bp)[:0]
	buf = binary.BigEndian.AppendUint32(buf, uint32(m.EncodedSize()))
	buf = m.AppendEncode(buf)
	*bp = buf

	for {
		conn, fresh, err := t.getConn(to)
		if err != nil {
			return err
		}
		if _, err := conn.Write(buf); err != nil {
			_ = conn.Close()
			if fresh {
				return err
			}
			continue // stale pooled connection: retry over a fresh dial
		}
		if !fresh {
			// Count reuse only for sends that actually rode a pooled
			// connection — a stale pop whose write failed is not reuse.
			t.reused.Add(1)
		}
		t.putConn(to, conn)
		return nil
	}
}

// Close implements Transport: it stops the listener and janitor, closes
// every pooled and accepted connection, and waits for the handler
// goroutines to drain.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	var conns []net.Conn
	for _, pcs := range t.idle {
		for _, pc := range pcs {
			conns = append(conns, pc.c)
		}
	}
	t.idle = map[string][]pooledConn{}
	for c := range t.accepted {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	close(t.done)
	err := t.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	t.wg.Wait()
	return err
}

func readFrame(r io.Reader) (Message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 { // zero-length frame: heartbeat ping, not a message
		return Message{}, errPing
	}
	if n > 1<<26 { // 64 MiB guard against corrupt frames
		return Message{}, fmt.Errorf("hypervisor: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Message{}, err
	}
	return DecodeMessage(body)
}
