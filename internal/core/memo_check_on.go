//go:build scorecheck

package core

// The scorecheck build tag turns the differential check of the quiet-VM
// memo on for a whole test binary (see checkSkips).
func init() { checkSkips = true }
