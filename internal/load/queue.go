package load

// QueueModel is the deterministic model of an event consumer's own queue
// behind the backpressure-onset measurement. A consumer that wants its own
// goroutine has its platform observer send into a channel of capacity
// buffer that it drains once per tick; that send would block the feeder at
// the first event that finds the buffer full. Blocking the feeder inside a
// virtual-clock harness would deadlock (feeder and consumer share one
// goroutine) and, worse, would make the onset depend on scheduler timing.
// So the harness's observer replays the channel arithmetic here instead:
// every event enqueues one unit, and at each tick boundary the modelled
// consumer dequeues up to drainPerTick units. Pure integer arithmetic over
// the (deterministic) event stream ⇒ the onset point is a deterministic
// function of (workload, buffer, drain rate).
type QueueModel struct {
	buffer       int // the modelled channel capacity
	drainPerTick int // events the modelled consumer dequeues at each tick boundary

	depth   int
	peak    int
	onset   float64
	latched bool // onset holds the first would-block emit's time
}

// NewQueueModel returns a model with the onset unset.
func NewQueueModel(buffer, drainPerTick int) *QueueModel {
	return &QueueModel{buffer: buffer, drainPerTick: drainPerTick}
}

// Push enqueues one event at virtual time t. The first push that lifts the
// depth above the buffer — the emit at which a real channel send would have
// blocked — latches the onset time.
func (q *QueueModel) Push(t float64) {
	q.depth++
	if q.depth > q.peak {
		q.peak = q.depth
	}
	if !q.latched && q.depth > q.buffer {
		q.onset, q.latched = t, true
	}
}

// Drain runs the modelled consumer's per-tick dequeue.
func (q *QueueModel) Drain() {
	if q.depth <= q.drainPerTick {
		q.depth = 0
		return
	}
	q.depth -= q.drainPerTick
}

// Peak returns the largest backlog ever observed.
func (q *QueueModel) Peak() int { return q.peak }

// Onset returns the virtual time of the first would-block emit, or -1 if
// the buffer never saturated.
func (q *QueueModel) Onset() float64 {
	if !q.latched {
		return -1
	}
	return q.onset
}
