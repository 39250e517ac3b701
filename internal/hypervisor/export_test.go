package hypervisor

// Isolate partitions addr away from the plane: every message to or from
// it is silently dropped (all types — a crashed or unreachable host loses
// probes and commits too, not just tokens).
func (p *FaultPlan) Isolate(addr string) {
	p.mu.Lock()
	p.blocked[addr] = true
	p.mu.Unlock()
}

// Heal reconnects addr.
func (p *FaultPlan) Heal(addr string) {
	p.mu.Lock()
	delete(p.blocked, addr)
	p.mu.Unlock()
}

// Stats snapshots the intervention counters.
func (p *FaultPlan) Stats() FaultStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// TCPStats counts a transport's send-path work: Sends is every frame
// written, Dials the connections established for them, Reused the sends
// that rode an existing pooled connection. Sends − Dials is the dials the
// pool saved. HeartbeatFails counts
// parked connections that failed their pre-send end-to-end heartbeat.
type TCPStats struct {
	Sends, Dials, Reused, HeartbeatFails int64
}

// Stats snapshots the send-path counters.
func (t *TCPTransport) Stats() TCPStats {
	return TCPStats{Sends: t.sends.Load(), Dials: t.dials.Load(), Reused: t.reused.Load(), HeartbeatFails: t.hbFails.Load()}
}
