package hypervisor

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	clusterpkg "github.com/score-dc/score/internal/cluster"
)

// blackholeRelay forwards TCP bytes between clients and a backend until
// told to die silently: forwarding stops in both directions and the
// listener closes, but the accepted sockets stay open — no FIN or RST
// ever reaches the client, exactly like a peer losing power behind a
// switch. Bytes written into a dead relay are read and discarded, so
// the client's writes keep succeeding locally.
type blackholeRelay struct {
	ln      net.Listener
	backend string
	dead    atomic.Bool

	mu    sync.Mutex
	conns []net.Conn
}

func newBlackholeRelay(t *testing.T, backend string) *blackholeRelay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &blackholeRelay{ln: ln, backend: backend}
	go r.acceptLoop()
	return r
}

func (r *blackholeRelay) Addr() string { return r.ln.Addr().String() }

func (r *blackholeRelay) acceptLoop() {
	for {
		cc, err := r.ln.Accept()
		if err != nil {
			return
		}
		bc, err := net.Dial("tcp", r.backend)
		if err != nil {
			cc.Close()
			return
		}
		r.mu.Lock()
		r.conns = append(r.conns, cc, bc)
		r.mu.Unlock()
		go r.pump(cc, bc)
		go r.pump(bc, cc)
	}
}

// pump copies src→dst until src closes, absorbing silently once dead.
func (r *blackholeRelay) pump(src, dst net.Conn) {
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if err != nil {
			return
		}
		if r.dead.Load() {
			continue // absorb: never forward, never close
		}
		if _, err := dst.Write(buf[:n]); err != nil {
			return
		}
	}
}

// Die kills the relay the hard way: no FIN on existing connections, no
// new connections accepted.
func (r *blackholeRelay) Die() {
	r.dead.Store(true)
	r.ln.Close()
}

// Shutdown releases everything (test cleanup only).
func (r *blackholeRelay) Shutdown() {
	r.ln.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.conns {
		c.Close()
	}
}

// TestTCPPoolHeartbeatDetectsSilentDeath: a peer that dies without a
// FIN used to absorb exactly one frame — the passive liveness probe
// times out ("alive"), the write lands in the half-open socket, and
// Send returns nil while the frame is gone. With the heartbeat, a
// parked connection must pong before it carries a frame, so the send
// surfaces an error instead of losing the message.
func TestTCPPoolHeartbeatDetectsSilentDeath(t *testing.T) {
	recv := make(chan Message, 16)
	b, err := NewTCPTransport("127.0.0.1:0", func(_ string, m Message) { recv <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	relay := newBlackholeRelay(t, b.Addr())
	defer relay.Shutdown()

	a, err := NewTCPTransport("127.0.0.1:0", func(string, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	if err := a.Send(relay.Addr(), Message{Type: MsgToken, VM: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-recv:
	case <-time.After(2 * time.Second):
		t.Fatal("first frame never arrived through the relay")
	}

	// Park past heartbeatIdle, then kill the path with no FIN.
	backdate(a, relay.Addr(), heartbeatIdle)
	relay.Die()

	if err := a.Send(relay.Addr(), Message{Type: MsgToken, VM: 2}); err == nil {
		t.Fatal("send into a silently dead peer returned nil — frame absorbed")
	}
	select {
	case m := <-recv:
		t.Fatalf("unexpected delivery after silent death: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestTCPPoolHeartbeatReuse: a healthy connection parked past
// heartbeatIdle pongs and is reused — the heartbeat costs one round
// trip, not the pooled connection.
func TestTCPPoolHeartbeatReuse(t *testing.T) {
	recv := make(chan Message, 16)
	b, err := NewTCPTransport("127.0.0.1:0", func(_ string, m Message) { recv <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	a, err := NewTCPTransport("127.0.0.1:0", func(string, Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	for i := 0; i < 3; i++ {
		backdate(a, b.Addr(), heartbeatIdle) // park past heartbeatIdle
		if err := a.Send(b.Addr(), Message{Type: MsgToken, VM: clusterpkg.VMID(i + 1)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		select {
		case <-recv:
		case <-time.After(2 * time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
	}
	st := a.Stats()
	if st.Dials != 1 || st.Reused != 2 || st.HeartbeatFails != 0 {
		t.Fatalf("stats = %+v, want 1 dial and 2 heartbeat-verified reuses", st)
	}
}
