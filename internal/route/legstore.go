package route

import (
	"math"
	"slices"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// legBlock is the 4x4 travel-cost matrix over one order pair's four route
// events, row-major over [pickup_lo, dropoff_lo, pickup_hi, dropoff_hi]
// where lo is the member with the smaller order ID. Only the ten entries the
// route DP can read are costs: the eight cross legs between the two orders
// and each order's own pickup -> dropoff leg. The DP never leaves an event
// for itself, and never travels dropoff_i -> pickup_i (a state whose last
// event is D_i already has P_i in its mask), so the diagonal and those two
// cells hold legUnread and no search is ever run for them.
//
//det:scratch a block is written only while its store's one writer goroutine fills it, before any plan reads it; a dropped block is recycled by that same goroutine
type legBlock [16]float64

// Block cells, by role.
const (
	legWithinLo = 0*4 + 1 // pickup_lo -> dropoff_lo
	legWithinHi = 2*4 + 3 // pickup_hi -> dropoff_hi
)

var (
	legCrossLoHi = [4]int{0*4 + 2, 0*4 + 3, 1*4 + 2, 1*4 + 3} // {P,D}_lo -> {P,D}_hi, row-major
	legCrossHiLo = [4]int{2*4 + 0, 2*4 + 1, 3*4 + 0, 3*4 + 1} // {P,D}_hi -> {P,D}_lo
	legUnreadAt  = [6]int{0, 5, 10, 15, 1*4 + 0, 3*4 + 2}     // diagonal, D_lo -> P_lo, D_hi -> P_hi
)

// legUnread marks a block cell no plan reads. NaN fails every comparison the
// DP makes, so a kernel that did read one could never build a route on it.
var legUnread = math.NaN()

type pairKey struct{ lo, hi int }

// LegStore memoizes per-pair leg blocks for the shareability graph's route
// planning. Every clique the pool plans is a set of orders whose pairs were
// each already cost-tested once (the pairwise shareability check), so a
// k-group's (2k)x(2k) leg matrix decomposes entirely into k*(k-1)/2 pair
// blocks — assembling it from the store replaces a batched network search
// per considered clique with plain copies. Every entry a plan reads is the
// pure, deterministic cost(l1, l2) value the network would return fresh, so
// store-assembled plans are bit-identical to store-free ones.
//
// A LegStore belongs to exactly one pool and is not safe for concurrent
// use; lifetime and eviction follow the pool's node set.
type LegStore struct {
	net roadnet.Network
	// searched: the network prices a leg by searching the graph (it offers
	// lower bounds, which a closed-form O(1) oracle has no use for), so a
	// leg some live block already holds is worth two map lookups to find.
	searched bool
	blocks   map[pairKey]*legBlock
	byOrder  map[int][]pairKey
	// spare is the block the last DropPair released, reused by the next
	// fill: most pair tests fail, and each would otherwise allocate a block
	// only to drop it a few hundred nanoseconds later.
	spare *legBlock
	hits  uint64
	fills uint64
	query legQuery
}

// legQuery is a fill's query scratch: the pair's four nodes and one 2x2
// result. It lives in the store because a local array handed to the network
// through its interface would escape, costing an allocation per fill.
//
//det:scratch written only by its store's one writer goroutine, during a fill, and read back before the fill returns
type legQuery struct {
	locs  [4]geo.NodeID
	cross [4]float64
}

// NewLegStore returns an empty store over the network.
func NewLegStore(net roadnet.Network) *LegStore {
	_, searched := net.(roadnet.BoundedNetwork)
	return &LegStore{
		net:      net,
		searched: searched,
		blocks:   make(map[pairKey]*legBlock),
		byOrder:  make(map[int][]pairKey),
	}
}

// block returns the pair's leg block, filling it on first use, and whether
// the pair was given in (hi, lo) order — the caller needs that to map member
// indices onto block rows. A fill asks the network for exactly what a plan
// reads: the two 2x2 cross matrices, {P,D}_lo -> {P,D}_hi and back, and the
// two within-order legs — which belong to the order, not the pair, so where
// a leg costs a search each is copied from any live block of that order and
// only asked of the network when there is none.
//
//det:specwrite memoized pure leg matrix keyed by the pair; every store has exactly one writer goroutine and the cached values are bit-identical no matter when the fill ran
func (s *LegStore) block(a, b *order.Order) (blk *legBlock, swapped bool) {
	lo, hi := a, b
	if lo.ID > hi.ID {
		lo, hi = hi, lo
		swapped = true
	}
	key := pairKey{lo.ID, hi.ID}
	if blk, ok := s.blocks[key]; ok {
		s.hits++
		return blk, swapped
	}
	if blk = s.spare; blk != nil {
		s.spare = nil
	} else {
		//det:hotalloc one block per distinct pair, cached for the pair's lifetime and amortized over thousands of DP touches
		blk = new(legBlock)
	}
	q := &s.query
	q.locs = [4]geo.NodeID{lo.Pickup, lo.Dropoff, hi.Pickup, hi.Dropoff}
	roadnet.FillCostMatrix(s.net, q.locs[:2], q.locs[2:], q.cross[:])
	for i, at := range legCrossLoHi {
		blk[at] = q.cross[i]
	}
	roadnet.FillCostMatrix(s.net, q.locs[2:], q.locs[:2], q.cross[:])
	for i, at := range legCrossHiLo {
		blk[at] = q.cross[i]
	}
	blk[legWithinLo], blk[legWithinHi] = s.within(lo), s.within(hi)
	for _, at := range legUnreadAt {
		blk[at] = legUnread
	}
	s.blocks[key] = blk
	s.byOrder[lo.ID] = append(s.byOrder[lo.ID], key)
	s.byOrder[hi.ID] = append(s.byOrder[hi.ID], key)
	s.fills++
	return blk, swapped
}

// within returns cost(o.Pickup, o.Dropoff): on a searched network from a
// live block of the order when it has one, from the network otherwise. (On
// a closed-form city the lookup cost fifteen times the Cost call it saved.)
func (s *LegStore) within(o *order.Order) float64 {
	if s.searched {
		for _, key := range s.byOrder[o.ID] {
			if blk, ok := s.blocks[key]; ok {
				if key.lo == o.ID {
					return blk[legWithinLo]
				}
				return blk[legWithinHi]
			}
		}
	}
	return s.net.Cost(o.Pickup, o.Dropoff)
}

// DropPair removes one pair's cached block and its two index keys. The pool
// uses it when a pairwise shareability test fails: with no edge the pair can
// never appear in a clique, so its block is dead weight — kept as the spare
// for the next fill, which overwrites all of it.
func (s *LegStore) DropPair(aID, bID int) {
	if aID > bID {
		aID, bID = bID, aID
	}
	key := pairKey{aID, bID}
	if blk, ok := s.blocks[key]; ok {
		delete(s.blocks, key)
		s.spare = blk
		s.unindex(aID, key)
		s.unindex(bID, key)
	}
}

// unindex removes key from the order's index slice, which keeps its place in
// the map (and its capacity) even when emptied. Fill, plan and drop are
// consecutive in a failed pair test, so the key is the tail and the scan
// ends at its first step.
func (s *LegStore) unindex(orderID int, key pairKey) {
	keys := s.byOrder[orderID]
	for i := len(keys) - 1; i >= 0; i-- {
		if keys[i] == key {
			s.byOrder[orderID] = slices.Delete(keys, i, i+1)
			return
		}
	}
}

// Evict drops every block involving the order (called when it leaves the
// pool). Keys for already-deleted blocks (the partner was evicted first)
// are skipped harmlessly.
func (s *LegStore) Evict(orderID int) {
	for _, key := range s.byOrder[orderID] {
		delete(s.blocks, key)
	}
	delete(s.byOrder, orderID)
}

// Adopt moves every block of the other store into this one, indexing them
// per member for eviction; blocks already present win (they hold the same
// pure cost values, so the choice is cosmetic). The sharded engine's insert
// prewarm computes pair blocks into throwaway per-task stores on shard
// goroutines, then adopts them into the pool's store on the coordinator —
// the fills counter follows the blocks so accounting matches a sequential
// fill. The other store must not be used afterwards.
func (s *LegStore) Adopt(other *LegStore) {
	// Adopt in (lo, hi) order: the byOrder index slices then grow in the
	// same order however the shard scheduler interleaved the task stores,
	// keeping even internal state bit-stable across runs.
	keys := make([]pairKey, 0, len(other.blocks))
	for key := range other.blocks {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b pairKey) int {
		if a.lo != b.lo {
			return a.lo - b.lo
		}
		return a.hi - b.hi
	})
	for _, key := range keys {
		if _, ok := s.blocks[key]; ok {
			continue
		}
		s.blocks[key] = other.blocks[key]
		s.byOrder[key.lo] = append(s.byOrder[key.lo], key)
		s.byOrder[key.hi] = append(s.byOrder[key.hi], key)
		s.fills++
	}
}

// Len reports the number of cached pair blocks.
func (s *LegStore) Len() int { return len(s.blocks) }

// BlocksFor reports how many live blocks involve the order.
//
//det:api pool's plan-cache tests check that evicting an order drops its leg blocks
func (s *LegStore) BlocksFor(orderID int) int {
	n := 0
	for _, key := range s.byOrder[orderID] {
		if _, ok := s.blocks[key]; ok {
			n++
		}
	}
	return n
}

// Stats reports block reuses and batched fills since construction.
func (s *LegStore) Stats() (hits, fills uint64) { return s.hits, s.fills }

// assembleLegs fills the (ne x ne) leg matrix for the group from the
// store's pair blocks. Each member pair contributes its cross entries; the
// within-member cells (the pickup -> dropoff leg, and the unread ones beside
// it) ride along from whichever blocks contain the member — every block
// holding an order carries the same values there, so repeated writes are
// idempotent.
func assembleLegs(store *LegStore, orders []*order.Order, ne int, legs []float64) {
	for i := 0; i < len(orders); i++ {
		for j := i + 1; j < len(orders); j++ {
			blk, swapped := store.block(orders[i], orders[j])
			ri, rj := 0, 2
			if swapped {
				ri, rj = 2, 0
			}
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					legs[(2*i+a)*ne+(2*j+b)] = blk[(ri+a)*4+(rj+b)]
					legs[(2*j+b)*ne+(2*i+a)] = blk[(rj+b)*4+(ri+a)]
					legs[(2*i+a)*ne+(2*i+b)] = blk[(ri+a)*4+(ri+b)]
					legs[(2*j+a)*ne+(2*j+b)] = blk[(rj+a)*4+(rj+b)]
				}
			}
		}
	}
}
