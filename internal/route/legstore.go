package route

import (
	"math"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// LegBlock is the 4x4 travel-cost matrix over one order pair's four route
// events, row-major over [pickup_lo, dropoff_lo, pickup_hi, dropoff_hi]
// where lo is the member with the smaller order ID. Only the ten entries the
// route DP can read are costs: the eight cross legs between the two orders
// and each order's own pickup -> dropoff leg. The DP never leaves an event
// for itself, and never travels dropoff_i -> pickup_i (a state whose last
// event is D_i already has P_i in its mask), so the diagonal and those two
// cells hold legUnread and no search is ever run for them.
//
// A block's owner keeps it for as long as the pair can be planned — the
// pool, on the pair's two adjacency entries — and hands it back with
// Release; its cells are the store's business.
//
//det:scratch a block is written only while its store's one writer goroutine fills it, before any plan reads it; a released block is recycled by that same goroutine
type LegBlock struct{ c [16]float64 }

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

// Slot names one order of the store owner's node set: Index is a dense
// position the owner recycles once the order leaves, and Gen tells apart
// the orders that held the same Index — the owner changes it on every
// reuse, and no live order has Gen 0. A negative Index is no slot: the
// store then memoizes nothing for the order.
type Slot struct {
	Index int32
	Gen   uint32
}

// NoSlot names an order the store must not memoize anything for.
var NoSlot = Slot{Index: -1}

// LegStore fills the per-pair leg blocks the shareability graph plans its
// cliques from. Every clique the pool plans is a set of orders whose pairs
// were each already cost-tested once (the pairwise shareability check), so a
// k-group's (2k)x(2k) leg matrix decomposes entirely into k*(k-1)/2 pair
// blocks — assembling it from blocks replaces a batched network search per
// considered clique with plain copies. Every entry a plan reads is the
// pure, deterministic cost(l1, l2) value the network would return fresh, so
// block-assembled plans are bit-identical to block-free ones.
//
// The store does not look blocks up: whoever asked for a block keeps it
// (the pool stores it on the pair's adjacency entries) and passes a group's
// blocks to PlanGroupCostLegs / PlanGroupInto. What the store keeps is
// indexed by the owner's slots: each slot's within-order leg,
// cost(pickup, dropoff), which every block of that order repeats, stamped
// with the slot's generation so a recycled slot never reads its previous
// order's leg. Released blocks are recycled by the next fill.
//
// A LegStore belongs to exactly one pool and is not safe for concurrent
// use.
type LegStore struct {
	net    roadnet.Network
	within []withinLeg // by slot index
	free   []*LegBlock // released blocks, reused by the next fill
	live   int         // blocks handed out and not released
	fills  uint64
	query  legQuery
	// detached holds the pair blocks of one PlanGroupCost call on a store
	// without an owner (see fillGroup).
	detached [maxPairs]*LegBlock
}

// maxPairs is the number of member pairs of the largest plannable group.
const maxPairs = MaxGroupSize * (MaxGroupSize - 1) / 2

// withinLeg is one slot's memoized cost(pickup, dropoff), valid while gen
// is the slot's current generation.
type withinLeg struct {
	gen  uint32
	cost float64
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
	return &LegStore{net: net}
}

// Fill returns a block holding the pair's legs, recycling a released block
// when there is one. It asks the network for exactly what a plan reads: the
// two 2x2 cross matrices, {P,D}_lo -> {P,D}_hi and back, and the two
// within-order legs, which come from the slot memo when the order's slot
// already holds its leg.
//
//det:specwrite a prewarm task fills a block of its own task store; every store has exactly one writer goroutine and a block's values are the same pure costs whenever the fill ran
func (s *LegStore) Fill(a *order.Order, sa Slot, b *order.Order, sb Slot) *LegBlock {
	lo, hi, slo, shi := a, b, sa, sb
	if lo.ID > hi.ID {
		lo, hi, slo, shi = b, a, sb, sa
	}
	var blk *LegBlock
	if n := len(s.free); n > 0 {
		blk = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		//det:hotalloc one block per concurrently live pair; released blocks are recycled, so steady state allocates none
		blk = new(LegBlock)
	}
	q := &s.query
	q.locs = [4]geo.NodeID{lo.Pickup, lo.Dropoff, hi.Pickup, hi.Dropoff}
	roadnet.FillCostMatrix(s.net, q.locs[:2], q.locs[2:], q.cross[:])
	for i, at := range legCrossLoHi {
		blk.c[at] = q.cross[i]
	}
	roadnet.FillCostMatrix(s.net, q.locs[2:], q.locs[:2], q.cross[:])
	for i, at := range legCrossHiLo {
		blk.c[at] = q.cross[i]
	}
	blk.c[legWithinLo], blk.c[legWithinHi] = s.withinCost(lo, slo), s.withinCost(hi, shi)
	for _, at := range legUnreadAt {
		blk.c[at] = legUnread
	}
	s.live++
	s.fills++
	return blk
}

// withinCost returns cost(o.Pickup, o.Dropoff), from the slot's memo when
// it holds the slot's current generation and from the network otherwise.
//
//det:specwrite a prewarm task fills with NoSlot and returns before the memo; the memo is written only by its store's one writer goroutine
func (s *LegStore) withinCost(o *order.Order, slot Slot) float64 {
	if slot.Index < 0 {
		return s.net.Cost(o.Pickup, o.Dropoff)
	}
	if n := int(slot.Index) + 1; n > len(s.within) {
		//det:hotalloc grows to the owner's slot high-water mark once; recycled slots reuse it
		s.within = append(s.within, make([]withinLeg, n-len(s.within))...)
	}
	w := &s.within[slot.Index]
	if w.gen != slot.Gen {
		w.gen, w.cost = slot.Gen, s.net.Cost(o.Pickup, o.Dropoff)
	}
	return w.cost
}

// Release hands a block back once no plan can read it any more (its pair
// test failed, its edge expired, or a member left). The next fill
// overwrites all of it.
func (s *LegStore) Release(blk *LegBlock) {
	s.free = append(s.free, blk)
	s.live--
}

// Adopt takes over a block another store filled — the insert prewarm fills
// pair blocks in throwaway per-task stores on the engine's goroutines — so
// the live and fill counts match a sequential fill. The block is released
// to this store like any of its own.
func (s *LegStore) Adopt(*LegBlock) {
	s.live++
	s.fills++
}

// Len reports the number of blocks handed out and not yet released.
//
//det:api pool's tests hold its live count to the blocks the pool's edges own (no block leaks)
func (s *LegStore) Len() int { return s.live }

// Stats reports block reuses and fills since construction. The store keeps
// no block to reuse — the owner does — so hits is 0.
func (s *LegStore) Stats() (hits, fills uint64) { return 0, s.fills }

// fillGroup is the leg source of PlanGroupCost on a store: the group's pair
// blocks filled fresh (no slots, so nothing is memoized), in pair order.
// The caller releases them with releaseGroup once the legs are assembled.
func (s *LegStore) fillGroup(orders []*order.Order) []*LegBlock {
	blocks := s.detached[:0]
	for i := range orders {
		for j := i + 1; j < len(orders); j++ {
			blocks = append(blocks, s.Fill(orders[i], NoSlot, orders[j], NoSlot))
		}
	}
	return blocks
}

func (s *LegStore) releaseGroup(blocks []*LegBlock) {
	for i, blk := range blocks {
		s.Release(blk)
		blocks[i] = nil
	}
}

// assembleLegs fills the (ne x ne) leg matrix for the group from its pair
// blocks, blocks[p] belonging to the p-th pair (i, j), i < j, in row-major
// order. Each member pair contributes its cross entries; the within-member
// cells (the pickup -> dropoff leg, and the unread ones beside it) ride
// along from whichever blocks contain the member — every block holding an
// order carries the same values there, so repeated writes are idempotent.
func assembleLegs(blocks []*LegBlock, orders []*order.Order, ne int, legs []float64) {
	p := 0
	for i := 0; i < len(orders); i++ {
		for j := i + 1; j < len(orders); j++ {
			blk := &blocks[p].c
			p++
			ri, rj := 0, 2
			if orders[i].ID > orders[j].ID {
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
