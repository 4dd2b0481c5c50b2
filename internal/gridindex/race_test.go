//go:build race

package gridindex

// The race detector makes sync.Pool drop a quarter of what is put back, so
// pooled scratch is reallocated at random and allocation counts mean nothing.
func init() { raceEnabled = true }
