package main

import (
	"sort"
	"time"
)

// The box the benchmark runs on is a shared VM whose speed for
// compute-bound code moves by tens of percent, in bursts of a second or
// two and in phases that last minutes (README, "Noise"). Repeating inside
// one run cannot average a phase away, and a probe taken before a replay
// says little about the two seconds that follow. So a replay carries a
// host meter: between the timed calls, every sliceEvery of wall time, it
// runs one slice of fixed compute-bound work and times it. The slices see
// the host the replay sees, and the replay's wall-clock quantities are
// reported as if every slice had taken sliceNominal: times at a reference
// host speed. The slice lives in the benchmark's own directory and works on
// a few kilobytes, so no change to the dispatcher can move it.
const (
	sliceNominal = 155e-6               // seconds a slice takes on this box when it is quiet
	sliceEvery   = 2 * time.Millisecond // wall time between slices: they add 7-8 % to a replay
	burstSlices  = 32                   // slices of a burst, the meter's reading of one moment
)

// hostMeter times slices of fixed work. All methods are no-ops on a nil
// meter, which is what a run at test scale gets: its results are
// comparable with nothing anyway.
type hostMeter struct {
	last   time.Time     // when the last slice ended
	n      int           // slices run
	sumInv float64       // sum over them of 1/seconds
	took   time.Duration // wall they took, which the replay's own wall leaves out
	keys   map[int]int
	xs     []int
}

func newHostMeter(scale float64) *hostMeter {
	if scale != 1 {
		return nil
	}
	h := &hostMeter{keys: make(map[int]int, 256), xs: make([]int, 0, 64)}
	for i := 0; i < 4; i++ {
		h.slice() // fills the map to its steady size and warms the code
	}
	h.n, h.sumInv, h.took = 0, 0, 0
	return h
}

var hostSink float64

// slice runs the fixed work once — float folds, map churn, small sorts:
// the instruction mix of the dispatcher, allocation-free so that it moves
// no allocation count — and records how long it took.
func (h *hostMeter) slice() {
	t0 := time.Now()
	var m [256]float64
	for i := range m {
		m[i] = float64(i%17) + 0.5
	}
	acc := 0.0
	for r := 0; r < 312; r++ {
		for i := 0; i < 256; i++ {
			v := m[i] + m[(i*7+r)&255]
			if v < acc {
				acc = v
			} else {
				acc += v * 1e-9
			}
		}
	}
	for i := 0; i < 2200; i++ {
		k := (i * 2654435761) & 127
		if _, ok := h.keys[k]; ok {
			delete(h.keys, k)
		} else {
			h.keys[k] = i
		}
	}
	for i := 0; i < 44; i++ {
		h.xs = h.xs[:0]
		for k := 0; k < 48; k++ {
			h.xs = append(h.xs, (i*31+k*17)&1023)
		}
		sort.Ints(h.xs)
	}
	hostSink += acc + float64(len(h.keys)+h.xs[0])
	h.last = time.Now()
	d := h.last.Sub(t0)
	h.n++
	h.sumInv += 1 / d.Seconds()
	h.took += d
}

// start begins pacing from now.
func (h *hostMeter) start(now time.Time) {
	if h != nil {
		h.last = now
	}
}

// pace runs a slice when one is due. The replay calls it after every
// timed call with that call's end time.
func (h *hostMeter) pace(now time.Time) {
	if h != nil && now.Sub(h.last) >= sliceEvery {
		h.slice()
	}
}

// burst reads the host at one moment: a few slices back to back.
func (h *hostMeter) burst() {
	if h == nil {
		return
	}
	for i := 0; i < burstSlices; i++ {
		h.slice()
	}
}

// factor brings a time measured while the meter ran to reference host
// speed. Slices are spread evenly over wall time, and a slow stretch of
// wall time holds less of the replay's work than a fast one, so the work
// done per second of wall is the mean of the slices' rates, not the
// inverse of their mean time.
func (h *hostMeter) factor() float64 {
	if h == nil || h.n == 0 {
		return 1
	}
	return sliceNominal * h.sumInv / float64(h.n)
}

// spent is the wall time the slices took.
func (h *hostMeter) spent() time.Duration {
	if h == nil {
		return 0
	}
	return h.took
}
