//go:build race

package core

// The race detector makes sync.Pool drop a quarter of what is put back, so
// the route planner's pooled scratch is reallocated at random and
// allocation counts mean nothing.
func init() { raceEnabled = true }
