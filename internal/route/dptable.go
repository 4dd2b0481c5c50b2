package route

import "math/bits"

// maxMasks is the size of the largest state space, 3^MaxGroupSize: the
// kernel's worklist of reached masks lives inline at this length.
const maxMasks = 729

// dpTable is the read-only shape of the route DP's state space for one group
// size k (events 2i = pickup of member i, 2i+1 = its dropoff). Of the 4^k
// event subsets only the 3^k in which no member is dropped before it is
// picked up can ever hold a route prefix; the table lists exactly those,
// ordered so that every mask comes after all of its sub-masks.
type dpTable struct {
	// masks holds the valid event sets by ascending popcount, then value;
	// a mask's index here is its rank, the row of its states in the compact
	// dp layout. masks[0] is the empty set, masks[3^k-1] the full one.
	masks []uint16
	// rank is the inverse of masks over all 4^k subsets (noRank for the
	// invalid ones, which the kernel never looks up).
	rank []uint16
	// owe[r] is the set of events a route prefix ending in masks[r] can
	// visit next: the pickup of each member still waiting and the dropoff
	// of each member on board — one event per member the prefix still owes
	// a delivery. The kernel pushes to exactly these, and its doom rule
	// looks ahead from the prefix's last stop through each of them.
	owe []uint16
}

const (
	noRank     = ^uint16(0)
	pickupBits = 0x5555 // the even (pickup) event positions of a mask
)

// dpTables[k] serves groups of k orders; built once at package init and
// never written again, so every planner goroutine reads it freely.
var dpTables = buildDPTables()

func buildDPTables() (tabs [MaxGroupSize + 1]dpTable) {
	for k := 1; k <= MaxGroupSize; k++ {
		ne := 2 * k
		pickups := (uint16(1)<<ne - 1) & pickupBits
		t := &tabs[k]
		t.rank = make([]uint16, 1<<ne)
		for level := 0; level <= ne; level++ {
			for m := 0; m < 1<<ne; m++ {
				mask := uint16(m)
				if bits.OnesCount16(mask) != level {
					continue
				}
				if mask>>1&^mask&pickupBits != 0 {
					t.rank[m] = noRank // some dropoff precedes its pickup
					continue
				}
				t.rank[m] = uint16(len(t.masks))
				t.masks = append(t.masks, mask)
				t.owe = append(t.owe, (pickups|mask&pickupBits<<1)&^mask)
			}
		}
	}
	return tabs
}
