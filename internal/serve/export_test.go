package serve

// Rounds reports how many scheduling rounds have completed.
func (d *Daemon) Rounds() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.coord.Rounds()
}

// History returns the retained round summaries, oldest first.
func (d *Daemon) History() []RoundSummary { return d.hist.Snapshot() }
