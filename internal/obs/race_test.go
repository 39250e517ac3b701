//go:build race

package obs

// The race detector makes sync.Pool drop a random share of what is put
// back, so WriteAuditJSON's recycled buffer is not alloc-free under it.
func init() { raceEnabled = true }
