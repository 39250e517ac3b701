//go:build scorecheck

package core

// The scorecheck build tag turns the differential check of admission
// from the NIC bound on for a whole test binary (see checkBound).
func init() { checkBound = true }
