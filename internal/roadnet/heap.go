package roadnet

import "watter/internal/geo"

// heapItem is one entry of the package's only priority queue. The searches
// order on a float64 key (tentative distance, plus the heuristic for A*) and
// carry the float32 fold the entry was pushed with; the contraction order
// packs (priority, node) into an int64 key and ignores dist.
type heapItem[K int64 | float64] struct {
	key  K
	dist float32
	node geo.NodeID
}

// minHeap is a hand-rolled binary min-heap on key: the standard library
// heap's interface indirection costs ~2x on the search and witness hot
// paths. Equal keys keep the sift order of the textbook algorithm (a parent
// is never swapped with an equal child), which the contraction's
// settle-capped witness searches rely on to rebuild the same hierarchy
// every time.
type minHeap[K int64 | float64] []heapItem[K]

func (h *minHeap[K]) push(it heapItem[K]) {
	q := append(*h, it)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p].key <= q[i].key {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	*h = q
}

func (h *minHeap[K]) pop() heapItem[K] {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	q.down(0)
	*h = q
	return top
}

// down sifts entry i toward the leaves until neither child is smaller.
func (q minHeap[K]) down(i int) {
	n := len(q)
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && q[l].key < q[s].key {
			s = l
		}
		if r < n && q[r].key < q[s].key {
			s = r
		}
		if s == i {
			return
		}
		q[i], q[s] = q[s], q[i]
		i = s
	}
}

// heapify restores the heap order over arbitrary contents in O(len), in
// place: what a search does after re-keying its whole frontier.
func (q minHeap[K]) heapify() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}
