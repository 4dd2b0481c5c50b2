package mdp

import (
	"math"
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

// TrainerConfig sets the DQN-style learning hyperparameters.
type TrainerConfig struct {
	Hidden []int // hidden layer sizes, default {64, 32}
	// Gamma is the discount factor (paper sets γ = 1 so rewards add up to
	// the slack time).
	Gamma float64
	// Omega weighs TD loss against target loss: ω·losstd + (1-ω)·losstg.
	Omega float64
	// LR is the Adam learning rate.
	LR float64
	// BatchSize per gradient step.
	BatchSize int
	// SyncEvery refreshes the target network every N steps.
	SyncEvery int
	// ReplayCap bounds the replay memory (ring buffer).
	ReplayCap int
	Seed      int64
}

// DefaultTrainerConfig mirrors the paper's setting: γ=1, balanced ω.
func DefaultTrainerConfig() TrainerConfig {
	return TrainerConfig{
		Hidden: []int{64, 32}, Gamma: 1, Omega: 0.5, LR: 1e-3,
		BatchSize: 64, SyncEvery: 200, ReplayCap: 1 << 16, Seed: 1,
	}
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
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{64, 32}
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = 200
	}
	if cfg.ReplayCap <= 0 {
		cfg.ReplayCap = 1 << 16
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	if cfg.Gamma <= 0 {
		cfg.Gamma = 1
	}
	sizes := append([]int{stateDim}, cfg.Hidden...)
	sizes = append(sizes, 1)
	main := nn.New(sizes, cfg.Seed)
	return &Trainer{
		cfg:    cfg,
		main:   main,
		target: main.Clone(),
		replay: make([]Experience, 0, cfg.ReplayCap),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Add appends an experience to the replay memory (ring overwrite).
func (t *Trainer) Add(e Experience) {
	if len(t.replay) < t.cfg.ReplayCap {
		t.replay = append(t.replay, e)
		return
	}
	t.replay[t.pos] = e
	t.pos = (t.pos + 1) % t.cfg.ReplayCap
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
	bs := t.cfg.BatchSize
	if bs > n {
		bs = n
	}
	xs := make([][]float64, bs)
	ys := make([]float64, bs)
	for i := 0; i < bs; i++ {
		e := t.replay[t.rng.Intn(n)]
		xs[i] = e.State
		ys[i] = t.blendedTarget(e)
	}
	loss := t.main.TrainBatch(xs, ys, t.cfg.LR)
	t.steps++
	if t.steps%t.cfg.SyncEvery == 0 {
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
		td = e.Reward + float64(math.Pow(t.cfg.Gamma, e.Dt)*t.target.PredictWith(&t.pass, e.Next))
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
