package shard

// BuildEngine exposes the fat-tree fixture to the package's external
// tests, which import the control plane (itself an importer of shard).
var BuildEngine = buildEngine

// SetWorkers gives c a worker pool of w workers in place of its own, so a
// test can hold a round run with helpers to one run inline (w = 1).
func SetWorkers(c *Coordinator, w int) {
	c.plane.pool.Close()
	p := NewPool(w)
	c.plane.pool, c.Driver.pool = p, p
}
