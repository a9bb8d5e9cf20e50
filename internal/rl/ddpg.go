package rl

import (
	"fmt"
	"math/rand"

	"deepcat/internal/mat"
	"deepcat/internal/nn"
)

// DDPGConfig collects the hyper-parameters of a DDPG agent (Lillicrap et
// al., 2015), the backbone of the CDBTune baseline.
type DDPGConfig struct {
	StateDim  int
	ActionDim int
	Hidden    []int

	ActorLR  float64
	CriticLR float64
	Gamma    float64
	Tau      float64
	// MaxGradNorm, when positive, clips gradients by global norm.
	MaxGradNorm float64
}

// DefaultDDPGConfig mirrors DefaultTD3Config for a fair head-to-head
// comparison: identical architecture, learning rates and discount.
func DefaultDDPGConfig(stateDim, actionDim int) DDPGConfig {
	return DDPGConfig{
		StateDim:    stateDim,
		ActionDim:   actionDim,
		Hidden:      []int{128, 128},
		ActorLR:     1e-3,
		CriticLR:    1e-3,
		Gamma:       0.35,
		Tau:         0.005,
		MaxGradNorm: 5,
	}
}

func (c DDPGConfig) validate() error {
	switch {
	case c.StateDim <= 0 || c.ActionDim <= 0:
		return fmt.Errorf("rl: non-positive dimensions state=%d action=%d", c.StateDim, c.ActionDim)
	case len(c.Hidden) == 0:
		return fmt.Errorf("rl: no hidden layers")
	case c.Gamma < 0 || c.Gamma >= 1:
		return fmt.Errorf("rl: gamma %g outside [0,1)", c.Gamma)
	case c.Tau <= 0 || c.Tau > 1:
		return fmt.Errorf("rl: tau %g outside (0,1]", c.Tau)
	}
	return nil
}

// DDPG is the single-critic deterministic policy gradient agent. Its known
// weakness — critic overestimation feeding a poor policy — is exactly what
// the paper replaces it with TD3 to fix.
type DDPG struct {
	Cfg DDPGConfig

	Actor       *nn.MLP
	ActorTarget *nn.MLP
	Critic      *nn.MLP
	CriticT     *nn.MLP

	actorOpt   *nn.Adam
	criticOpt  *nn.Adam
	actorGrads *nn.Grads
	critGrads  *nn.Grads

	updates int
	scratch trainScratch
}

// NewDDPG constructs an agent with freshly initialized networks.
func NewDDPG(rng *rand.Rand, cfg DDPGConfig) (*DDPG, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Reuse the TD3 layer-shape helpers; the roles are identical.
	tcfg := TD3Config{StateDim: cfg.StateDim, ActionDim: cfg.ActionDim, Hidden: cfg.Hidden}
	aSizes, aActs := actorSizes(tcfg)
	cSizes, cActs := criticSizes(tcfg)
	d := &DDPG{Cfg: cfg}
	d.Actor = nn.NewMLP(rng, aSizes, aActs)
	d.Critic = nn.NewMLP(rng, cSizes, cActs)
	d.ActorTarget = d.Actor.Clone()
	d.CriticT = d.Critic.Clone()
	d.actorOpt = nn.NewAdam(d.Actor, cfg.ActorLR)
	d.criticOpt = nn.NewAdam(d.Critic, cfg.CriticLR)
	d.actorOpt.MaxNorm = cfg.MaxGradNorm
	d.criticOpt.MaxNorm = cfg.MaxGradNorm
	d.actorGrads = d.Actor.NewGrads()
	d.critGrads = d.Critic.NewGrads()
	return d, nil
}

// Act returns the deterministic policy's action for state in [0,1]^d.
func (d *DDPG) Act(state []float64) []float64 {
	return d.Actor.Forward(state)
}

// ActNoisy returns the policy action perturbed with Gaussian exploration
// noise, clipped into [0,1].
func (d *DDPG) ActNoisy(rng *rand.Rand, state []float64, sigma float64) []float64 {
	a := d.Act(state)
	for i := range a {
		a[i] = mat.Clip(a[i]+sigma*rng.NormFloat64(), 0, 1)
	}
	return a
}

// QValue evaluates the critic at (state, action).
func (d *DDPG) QValue(state, action []float64) float64 {
	sa := make([]float64, d.Cfg.StateDim+d.Cfg.ActionDim)
	copy(sa, state)
	copy(sa[d.Cfg.StateDim:], action)
	return d.Critic.Forward(sa)[0]
}

// Train performs one DDPG update: critic TD regression (Eq. 3), actor
// deterministic policy gradient (Eq. 4), soft target updates. Like
// TD3.Train it runs the mini-batch lane-major, bit-identical to a
// per-sample loop, and allocates nothing once warm; TDErrors is agent-owned
// and valid until the next Train.
func (d *DDPG) Train(rng *rand.Rand, batch Batch) TrainStats {
	n := batch.Len()
	if n == 0 {
		panic("rl: Train on empty batch")
	}
	sc := &d.scratch
	y := sc.bootstrap(rng, batch, d.ActorTarget, d.CriticT, nil, d.Cfg.Gamma, false, 0, 0)

	kp := sc.packBatch(batch, d.Cfg.StateDim, d.Cfg.ActionDim)
	q := d.Critic.ForwardLanes(&sc.crit1, sc.sa, kp, n)
	g := grow(&sc.g1, kp)
	clear(g[n:])
	td := grow(&sc.td, n)
	var loss, sumQ float64
	for i := 0; i < n; i++ {
		w := 1.0
		if batch.Weights != nil {
			w = batch.Weights[i]
		}
		delta := q[i] - y[i]
		g[i] = w * delta
		loss += w * 0.5 * delta * delta
		sumQ += q[i]
		td[i] = delta
	}
	d.Critic.BackwardBatch(&sc.crit1, g, d.critGrads, nil, 0, 0)
	scale := 1.0 / float64(n)
	d.criticOpt.Step(d.Critic, d.critGrads, scale)
	stats := TrainStats{CriticLoss: loss * scale, MeanQ: sumQ * scale, TDErrors: td, ActorUpdated: true}

	sc.actorStep(d.Actor, d.Critic, d.actorOpt, d.actorGrads, n, kp)
	d.ActorTarget.SoftUpdate(d.Actor, d.Cfg.Tau)
	d.CriticT.SoftUpdate(d.Critic, d.Cfg.Tau)
	d.updates++
	return stats
}

// Updates returns the number of Train calls performed.
func (d *DDPG) Updates() int { return d.updates }
