//go:build race

package route

// The race detector makes sync.Pool drop a quarter of what is put back, so a
// roadnet.Graph's pooled search scratch is reallocated at random and
// allocation counts over a Graph mean nothing.
func init() { raceEnabled = true }
