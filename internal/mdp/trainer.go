package mdp

import (
	"math/rand"

	"watter/internal/nn"
)

// Action is the agent's choice at a decision epoch.
type Action int8

const (
	// Wait holds the order in the pool for another slot.
	Wait Action = 0
	// Dispatch matches the order with its current best group.
	Dispatch Action = 1
)

// Experience is one transition of the per-order MDP (Section VI-A).
type Experience struct {
	State []float64
	Act   Action
	// Reward: p - t_d for Dispatch; -Δt for Wait (per the Bellman update).
	Reward float64
	// Next is the successor state for non-terminal waits; nil when the
	// episode ended (dispatched or expired).
	Next []float64
	// Expired marks a terminal wait (the order died in the pool).
	Expired bool
	// Penalty is p(i), ThetaStar the GMM-analytic threshold θ*(p(i)) used
	// by the target loss (Section VI-B).
	Penalty   float64
	ThetaStar float64
	// Dt is the slot length of the wait transition.
	Dt float64
}

// The learning loop's fixed hyperparameters. The paper sets the discount
// γ = 1, so the slack times of a wait chain add up undiscounted and the
// bootstrap term of a wait is the target network's value unscaled.
const (
	// LearningRate is the Adam step size.
	LearningRate = 1e-3
	// BatchSize is the minibatch of one gradient step.
	BatchSize = 64
	// SyncEvery refreshes the target network every this many steps.
	SyncEvery = 200
	// ReplayCap bounds the replay memory (a ring buffer).
	ReplayCap = 1 << 16
)

// TrainerConfig sets the value network's shape, the loss blend and the seed.
type TrainerConfig struct {
	// Hidden lists the hidden layer sizes; empty means a linear value
	// function.
	Hidden []int
	// Omega weighs TD loss against target loss: ω·losstd + (1-ω)·losstg.
	Omega float64
	Seed  int64
}

// Trainer owns the main network V, the delayed-copy target network V̂ and
// the replay memory, and runs the off-policy training loop.
type Trainer struct {
	cfg    TrainerConfig
	main   *nn.MLP
	target *nn.MLP
	replay []Experience
	pos    int
	steps  int
	rng    *rand.Rand
	pass   nn.Scratch // the target network's pass buffers
}

// NewTrainer builds a trainer for states of the given dimension.
func NewTrainer(stateDim int, cfg TrainerConfig) *Trainer {
	sizes := append([]int{stateDim}, cfg.Hidden...)
	sizes = append(sizes, 1)
	main := nn.New(sizes, cfg.Seed)
	return &Trainer{
		cfg:    cfg,
		main:   main,
		target: main.Clone(),
		replay: make([]Experience, 0, ReplayCap),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Add appends an experience to the replay memory (ring overwrite).
func (t *Trainer) Add(e Experience) {
	if len(t.replay) < ReplayCap {
		t.replay = append(t.replay, e)
		return
	}
	t.replay[t.pos] = e
	t.pos = (t.pos + 1) % ReplayCap
}

// ReplayLen returns the number of stored experiences.
func (t *Trainer) ReplayLen() int { return len(t.replay) }

// Network returns the main value network.
func (t *Trainer) Network() *nn.MLP { return t.main }

// Step samples one minibatch and performs one gradient update; returns the
// batch loss. The combined quadratic loss ω(y_td - V)² + (1-ω)(y_tg - V)²
// is minimized by regressing V toward the blended target
// ŷ = ω·y_td + (1-ω)·y_tg, which is how the update is implemented.
func (t *Trainer) Step() float64 {
	n := len(t.replay)
	if n == 0 {
		return 0
	}
	bs := min(BatchSize, n)
	xs := make([][]float64, bs)
	ys := make([]float64, bs)
	for i := 0; i < bs; i++ {
		e := t.replay[t.rng.Intn(n)]
		xs[i] = e.State
		ys[i] = t.blendedTarget(e)
	}
	loss := t.main.TrainBatch(xs, ys, LearningRate)
	t.steps++
	if t.steps%SyncEvery == 0 {
		t.target.CopyWeightsFrom(t.main)
	}
	return loss
}

// blendedTarget computes ω·y_td + (1-ω)·y_tg for one experience.
func (t *Trainer) blendedTarget(e Experience) float64 {
	var td float64
	switch {
	case e.Act == Dispatch:
		td = e.Reward // p - t_d, terminal
	case e.Expired || e.Next == nil:
		td = e.Reward // -Δt with no future (I(expired) = 1)
	default:
		td = e.Reward + t.target.PredictWith(&t.pass, e.Next) // γ^Δt = 1
	}
	tg := e.Penalty - e.ThetaStar
	return float64(t.cfg.Omega*td) + float64((1-t.cfg.Omega)*tg)
}

// Train runs the given number of gradient steps and returns the mean loss
// of the final tenth (a convergence indicator for callers/logs).
func (t *Trainer) Train(steps int) float64 {
	if steps <= 0 {
		return 0
	}
	tail := steps / 10
	if tail == 0 {
		tail = 1
	}
	var sum float64
	var cnt int
	for i := 0; i < steps; i++ {
		l := t.Step()
		if i >= steps-tail {
			sum += l
			cnt++
		}
	}
	return sum / float64(cnt)
}
