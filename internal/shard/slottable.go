// Package shard implements the slot-sharded dispatch engine: the layer
// that lets a single simulated city use every core of the machine without
// changing a single dispatch decision.
//
// The partitioning recipe is Codis's, translated from keyspace to space:
// the spatial grid's cells are the slots, a SlotTable assigns every slot to
// one of K shards, and slots migrate between shards ("handoff") at epoch
// barriers when load drifts. Each shard speculatively executes the
// expensive, read-only part of the periodic check for the orders whose
// pickup slot it owns — worker-probe ring searches and singleton route
// plans — on its own goroutine against a tick-start snapshot. The
// coordinator (the simulation goroutine itself) then commits decisions in
// exactly the K=1 order, consuming a speculation only while it provably
// still matches what a fresh computation would return; anything a dispatch
// may have perturbed — the cross-shard cases, where a probe's worker ring
// crossed into cells another order's dispatch touched — is recomputed on
// the spot. The result is bit-identical to the unsharded run by
// construction, and the equivalence tests pin it.
package shard

import (
	"fmt"
)

// SlotTable maps grid cells (slots) to shards. The initial assignment is K
// contiguous row-major bands of near-equal slot count; Reassign and
// Rebalance migrate individual slots afterwards, bumping the table's epoch.
// A slot is a border slot when some slot within the shareability candidate
// radius belongs to a different shard — orders there can pool with orders
// owned by a neighboring shard. The engine does not route work by the flag
// (every order is speculated by its pickup slot's owner and cross-shard
// effects are caught by validation at commit); Rebalance prefers border
// slots when it picks one to hand off, and that is the flag's only reader.
type SlotTable struct {
	n      int // grid side: slots are the n*n cells of the spatial index
	k      int // shard count (clamped to the slot count)
	radius int // border radius, in Chebyshev cell distance
	owner  []int32
	border []bool
	epoch  uint64
}

// NewSlotTable builds a table over an n-by-n grid split into k shards.
// k is clamped to [1, n*n]; radius must be non-negative (the pool's
// candidate prefilter radius; 0 means only the cell itself).
func NewSlotTable(n, k, radius int) (*SlotTable, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: grid side must be >= 1, got %d", n)
	}
	if k < 1 {
		return nil, fmt.Errorf("shard: shard count must be >= 1, got %d", k)
	}
	if radius < 0 {
		return nil, fmt.Errorf("shard: border radius must be >= 0, got %d", radius)
	}
	slots := n * n
	if k > slots {
		k = slots
	}
	t := &SlotTable{
		n:      n,
		k:      k,
		radius: radius,
		owner:  make([]int32, slots),
		border: make([]bool, slots),
	}
	for s := range t.owner {
		// Contiguous row-major bands: shard i owns [i*slots/k, (i+1)*slots/k).
		t.owner[s] = int32(s * k / slots)
	}
	t.recomputeBorders()
	return t, nil
}

// N returns the grid side.
func (t *SlotTable) N() int { return t.n }

// K returns the shard count.
func (t *SlotTable) K() int { return t.k }

// NumSlots returns n*n.
func (t *SlotTable) NumSlots() int { return len(t.owner) }

// Epoch returns the table's migration epoch: it advances on every Reassign
// or effective Rebalance, and shard-local state derived from the table is
// valid only within one epoch.
func (t *SlotTable) Epoch() uint64 { return t.epoch }

// ShardOf returns the shard owning the slot.
func (t *SlotTable) ShardOf(slot int) int { return int(t.owner[slot]) }

// IsBorder reports whether any slot within the candidate radius of slot is
// owned by a different shard. Border is symmetric by construction: if b
// lies within the radius of a and their owners differ, both are border
// slots (Chebyshev distance is symmetric).
func (t *SlotTable) IsBorder(slot int) bool { return t.border[slot] }

// SlotsOf returns the slots owned by the shard, ascending.
func (t *SlotTable) SlotsOf(shard int) []int {
	var out []int
	for s, o := range t.owner {
		if int(o) == shard {
			out = append(out, s)
		}
	}
	return out
}

// Reassign hands one slot to a new shard and bumps the epoch. The caller
// must quiesce shard-local state first (the engine does this at tick
// barriers).
func (t *SlotTable) Reassign(slot, shard int) error {
	if slot < 0 || slot >= len(t.owner) {
		return fmt.Errorf("shard: slot %d out of range [0,%d)", slot, len(t.owner))
	}
	if shard < 0 || shard >= t.k {
		return fmt.Errorf("shard: shard %d out of range [0,%d)", shard, t.k)
	}
	if int(t.owner[slot]) == shard {
		return nil
	}
	t.owner[slot] = int32(shard)
	t.recomputeBorders()
	t.epoch++
	return nil
}

// Rebalance migrates slots from the most- to the least-loaded shard until
// the heaviest shard carries at most twice the lightest shard's load plus
// one slot's worth, or the move budget (one band's worth of slots) runs
// out. slotLoad[s] is the work currently attributed to slot s (the engine
// passes pooled-order counts). Handoff prefers the lowest-indexed loaded
// border slot of the heavy shard so bands stay roughly contiguous. Returns
// the number of slots handed off. Deterministic: a pure function of the
// table and slotLoad.
func (t *SlotTable) Rebalance(slotLoad []int) int {
	if t.k < 2 || len(slotLoad) != len(t.owner) {
		return 0
	}
	moved := 0
	budget := len(t.owner)/t.k + 1
	for moved < budget {
		load := make([]int, t.k)
		for s, o := range t.owner {
			load[o] += slotLoad[s]
		}
		hi, lo := 0, 0
		for sh := 1; sh < t.k; sh++ {
			if load[sh] > load[hi] {
				hi = sh
			}
			if load[sh] < load[lo] {
				lo = sh
			}
		}
		if load[hi] <= 2*load[lo]+1 {
			break
		}
		// Lowest-indexed loaded slot of the heavy shard, preferring border
		// slots (they already touch foreign territory, so moving them
		// keeps the bands contiguous).
		pick := -1
		for s, o := range t.owner {
			if int(o) != hi || slotLoad[s] == 0 {
				continue
			}
			if t.border[s] {
				pick = s
				break
			}
			if pick < 0 {
				pick = s
			}
		}
		if pick < 0 {
			break
		}
		// Never move more load than would invert the imbalance.
		if slotLoad[pick] >= load[hi]-load[lo] {
			break
		}
		t.owner[pick] = int32(lo)
		moved++
	}
	if moved > 0 {
		t.recomputeBorders()
		t.epoch++
	}
	return moved
}

// Partition splits items by their cell's owning shard: given cells[i] (the
// slot item i currently occupies), it returns per-shard lists of item
// indices, ascending. The engine partitions pooled orders this way for the
// speculation fan-out and workers for load accounting; the handoff
// property test asserts the union is always the full multiset — migrating
// a slot moves its occupants between shards but never duplicates or drops
// one.
func (t *SlotTable) Partition(cells []int) [][]int {
	out := make([][]int, t.k)
	for i, c := range cells {
		sh := t.ShardOf(c)
		out[sh] = append(out[sh], i)
	}
	return out
}

// recomputeBorders refreshes the border flags after an ownership change.
func (t *SlotTable) recomputeBorders() {
	r := t.radius
	for s := range t.border {
		t.border[s] = false
		sx, sy := s%t.n, s/t.n
		own := t.owner[s]
	scan:
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				x, y := sx+dx, sy+dy
				if x < 0 || y < 0 || x >= t.n || y >= t.n {
					continue
				}
				if t.owner[y*t.n+x] != own {
					t.border[s] = true
					break scan
				}
			}
		}
	}
}
