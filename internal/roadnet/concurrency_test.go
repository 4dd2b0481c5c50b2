package roadnet

import (
	"math/rand"
	"sync"
	"testing"

	"watter/internal/geo"
)

// TestGraphCostConcurrent hammers the scratch pool from many goroutines
// and cross-checks every answer against the lattice closed form. Run under
// -race this is the safety proof for the parallel sweep engine, which
// shares one Graph across all replicate runs.
func TestGraphCostConcurrent(t *testing.T) {
	city := NewGridCity(12, 12, 100, 5)
	g := city.asGraph()

	const goroutines = 16
	const queries = 400
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			n := g.NumNodes()
			for q := 0; q < queries; q++ {
				from := geo.NodeID(rng.Intn(n))
				to := geo.NodeID(rng.Intn(n))
				got := g.Cost(from, to)
				want := city.Cost(from, to)
				if got != want {
					select {
					case errs <- "cost mismatch under concurrency":
					default:
					}
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errs)
	if msg, open := <-errs; open {
		t.Fatal(msg)
	}
}
