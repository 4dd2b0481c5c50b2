// Package specpure exercises the interprocedural speculation-purity
// analyzer: roots, scratch arenas, escapes, call-graph propagation, CHA
// over interfaces, and havoc for indirect calls and goroutines.
package specpure

// engine owns shared state plus a per-speculation scratch arena.
type engine struct {
	hits    int
	cache   map[int]int
	row     [4]int
	scratch arena
	sink    store
}

//det:scratch per-speculation probe buffers, private to one shard goroutine
type arena struct {
	buf  []int
	row  [4]int  // inline array: part of the arena itself
	back *engine // pointer field: a back-reference, NOT scratch
}

type store interface {
	Put(k, v int)
}

type mapStore struct{ m map[int]int }

func (s *mapStore) Put(k, v int) { s.m[k] = v } // want `speculation-impure`

var counter int

//det:specroot probe must stay read-only outside the arena
func (e *engine) probe(ids []int) {
	for _, id := range ids {
		e.probeOne(id)
	}
}

func (e *engine) probeOne(id int) {
	e.scratch.buf = append(e.scratch.buf[:0], id) // scratch arena: allowed
	e.deepWrite(id)
	e.excused(id)
	e.viaInterface(id)
	counter++ // want `speculation-impure`
}

// deepWrite is two calls below the root; its receiver write must still
// surface at the root.
func (e *engine) deepWrite(id int) {
	e.hits = id // want `speculation-impure`
}

// excused carries a declaration-level escape: nothing inside reports.
//
//det:specwrite memoized pure value, identical regardless of interleaving
func (e *engine) excused(id int) {
	e.cache[id] = id
}

// viaInterface resolves by CHA to (*mapStore).Put, whose map write is
// reported at its own site.
func (e *engine) viaInterface(id int) {
	e.sink.Put(id, id)
}

// backdoor writes through the arena's pointer field — the back-reference
// is shared state even though arena itself is scratch.
//
//det:specroot the back-pointer rule: pointer fields of scratch are shared
func (e *engine) backdoor() {
	e.scratch.back.hits++ // want `speculation-impure`
}

// freshOnly builds and mutates only local state: clean.
//
//det:specroot purely local construction must not report
func freshOnly(n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	m := map[int]int{}
	m[n] = n
	return out
}

// havocRoot launches a goroutine: conservative havoc.
//
//det:specroot goroutine launches degrade to havoc
func (e *engine) havocRoot(ch chan int) {
	go func() { // want `speculation-impure`
		ch <- 1
	}()
}

// paramWriter writes through its pointer parameter; reported when the
// argument aliases shared state, dropped when the argument is fresh.
func paramWriter(p *engine) {
	p.hits = 1 // want `speculation-impure`
}

//det:specroot param effects re-base onto caller argument provenance
func (e *engine) callsParamWriter() {
	paramWriter(e) // the write in paramWriter reports, based on e
	fresh := &engine{}
	paramWriter(fresh) // fresh argument: effect drops silently
}

// fillArenaRow and fillEngineRow write through a slice parameter; what the
// caller sliced decides whether that is scratch.
func fillArenaRow(out []int) {
	for i := range out {
		out[i] = i // reached only with the arena's row: allowed
	}
}

func fillEngineRow(out []int) {
	for i := range out {
		out[i] = i // want `speculation-impure`
	}
}

//det:specroot a slice of an array field is the holder's own memory: scratch inside the arena, shared inside the engine
func (e *engine) fillsRows() {
	fillArenaRow(e.scratch.row[:2])
	fillEngineRow(e.row[:2])
}
