//go:build scorecheck

package shard

// The scorecheck build tag turns the differential check of the merge's
// clean rule on for a whole test binary (see checkClean).
func init() { checkClean = true }
