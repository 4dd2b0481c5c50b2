package pool

// maxCliquesPerUpdate caps the number of candidate cliques one best-group
// recomputation explores.
const maxCliquesPerUpdate = 64

// enumerateCliques visits cliques of the shareability graph that contain
// the order in slot s, in sizes 2..MaxGroupSize, calling consider for each
// member slot list. Expansion is depth-first over the neighborhood in
// ascending ID — the adjacency's own order — with the standard
// common-neighbor intersection, so every visited set is a clique by
// construction; rider-count pruning cuts branches that can never fit the
// vehicle. maxCliquesPerUpdate bounds the total number of visits.
//
// All working storage (the neighbor list, the per-depth candidate lists and
// the member stack) lives in pooled scratch: candidate lists for deeper
// levels are appended to one shared stack buffer and truncated on
// backtrack, so a refresh allocates nothing however many cliques it
// explores. The member slice handed to consider is scratch too — consider
// must copy whatever it keeps (the plan cache does).
func (p *Pool) enumerateCliques(s int32, now float64, consider func([]int32)) {
	n := &p.nodes[s]
	buf := p.cliqueBuf[:0]
	for _, e := range n.adj {
		if e.expiry >= now {
			buf = append(buf, ref{e.id, e.slot})
		}
	}
	if len(buf) == 0 {
		p.cliqueBuf = buf
		return
	}

	budget := maxCliquesPerUpdate
	members := append(p.memberBuf[:0], s)
	riders := n.o.Riders

	var expand func(lo, hi int)
	expand = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if budget <= 0 {
				return
			}
			peer := &p.nodes[buf[i].slot]
			if riders+peer.o.Riders > p.opt.Capacity {
				continue
			}
			members = append(members, buf[i].slot)
			riders += peer.o.Riders
			budget--
			consider(members)
			if len(members) < p.opt.MaxGroupSize {
				// Candidates after i that are adjacent to the new member
				// (and, inductively, to all previous members) with a live
				// edge keep the set a clique. Both lists ascend by ID, so
				// one merge walk finds them. They are pushed onto the
				// shared stack past this level's slice and popped after the
				// recursive expansion returns.
				mark := len(buf)
				adj, a := peer.adj, 0
				for _, c := range buf[i+1 : hi] {
					for a < len(adj) && adj[a].id < c.id {
						a++
					}
					if a < len(adj) && adj[a].id == c.id && adj[a].expiry >= now {
						buf = append(buf, c)
					}
				}
				if len(buf) > mark {
					expand(mark, len(buf))
				}
				buf = buf[:mark]
			}
			riders -= peer.o.Riders
			members = members[:len(members)-1]
		}
	}
	expand(0, len(buf))
	p.cliqueBuf = buf
	p.memberBuf = members[:0]
}
