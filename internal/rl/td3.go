package rl

import (
	"fmt"
	"math/rand"

	"deepcat/internal/mat"
	"deepcat/internal/nn"
)

// TD3Config collects the hyper-parameters of a TD3 agent. The zero value is
// not usable; start from DefaultTD3Config.
type TD3Config struct {
	StateDim  int
	ActionDim int
	// Hidden lists the hidden-layer widths shared by actor and critics.
	Hidden []int

	ActorLR  float64
	CriticLR float64
	// Gamma is the discount factor. The tuners in this repo use a small
	// gamma so that Q stays in immediate-reward units, keeping the Twin-Q
	// threshold Q_th (Fig. 12) directly comparable to Eq. (1) rewards.
	Gamma float64
	// Tau is the Polyak soft-update coefficient for the target networks.
	Tau float64
	// PolicyDelay is the number of critic updates per actor/target update
	// (the "delayed" in TD3; canonical value 2).
	PolicyDelay int
	// TargetNoiseStd and TargetNoiseClip parameterize target policy
	// smoothing: a' = clip(actorTarget(s') + clip(eps, ±Clip), 0, 1).
	TargetNoiseStd  float64
	TargetNoiseClip float64
	// MaxGradNorm, when positive, clips gradients by global norm.
	MaxGradNorm float64
}

// DefaultTD3Config returns the configuration used throughout the
// reproduction for a given state/action dimensionality.
func DefaultTD3Config(stateDim, actionDim int) TD3Config {
	return TD3Config{
		StateDim:        stateDim,
		ActionDim:       actionDim,
		Hidden:          []int{128, 128},
		ActorLR:         1e-3,
		CriticLR:        1e-3,
		Gamma:           0.35,
		Tau:             0.005,
		PolicyDelay:     2,
		TargetNoiseStd:  0.05,
		TargetNoiseClip: 0.1,
		MaxGradNorm:     5,
	}
}

func (c TD3Config) validate() error {
	switch {
	case c.StateDim <= 0 || c.ActionDim <= 0:
		return fmt.Errorf("rl: non-positive dimensions state=%d action=%d", c.StateDim, c.ActionDim)
	case len(c.Hidden) == 0:
		return fmt.Errorf("rl: no hidden layers")
	case c.Gamma < 0 || c.Gamma >= 1:
		return fmt.Errorf("rl: gamma %g outside [0,1)", c.Gamma)
	case c.Tau <= 0 || c.Tau > 1:
		return fmt.Errorf("rl: tau %g outside (0,1]", c.Tau)
	case c.PolicyDelay <= 0:
		return fmt.Errorf("rl: policy delay %d <= 0", c.PolicyDelay)
	}
	return nil
}

// actorSizes/criticSizes build layer-size slices for the two network roles.
// The actor maps state -> action in [0,1]^d via a sigmoid output; a critic
// maps concat(state, action) -> scalar Q.
func actorSizes(c TD3Config) ([]int, []nn.Activation) {
	sizes := append([]int{c.StateDim}, c.Hidden...)
	sizes = append(sizes, c.ActionDim)
	acts := make([]nn.Activation, len(sizes)-1)
	for i := range acts {
		acts[i] = nn.ReLU
	}
	acts[len(acts)-1] = nn.Sigmoid
	return sizes, acts
}

func criticSizes(c TD3Config) ([]int, []nn.Activation) {
	sizes := append([]int{c.StateDim + c.ActionDim}, c.Hidden...)
	sizes = append(sizes, 1)
	acts := make([]nn.Activation, len(sizes)-1)
	for i := range acts {
		acts[i] = nn.ReLU
	}
	acts[len(acts)-1] = nn.Linear
	return sizes, acts
}

// TD3 is the Twin Delayed Deep Deterministic policy gradient agent
// (Fujimoto et al., 2018): two critics whose minimum forms the bootstrap
// target, target policy smoothing, and delayed policy updates.
type TD3 struct {
	Cfg TD3Config

	Actor       *nn.MLP
	ActorTarget *nn.MLP
	Critic1     *nn.MLP
	Critic2     *nn.MLP
	Critic1T    *nn.MLP
	Critic2T    *nn.MLP

	actorOpt *nn.Adam
	c1Opt    *nn.Adam
	c2Opt    *nn.Adam

	actorGrads *nn.Grads
	c1Grads    *nn.Grads
	c2Grads    *nn.Grads

	updates int
	saBuf   []float64 // scratch concat(state, action)
	scratch trainScratch
}

// NewTD3 constructs an agent with freshly initialized networks.
func NewTD3(rng *rand.Rand, cfg TD3Config) (*TD3, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	aSizes, aActs := actorSizes(cfg)
	cSizes, cActs := criticSizes(cfg)
	t := &TD3{Cfg: cfg}
	t.Actor = nn.NewMLP(rng, aSizes, aActs)
	t.Critic1 = nn.NewMLP(rng, cSizes, cActs)
	t.Critic2 = nn.NewMLP(rng, cSizes, cActs)
	t.ActorTarget = t.Actor.Clone()
	t.Critic1T = t.Critic1.Clone()
	t.Critic2T = t.Critic2.Clone()
	t.actorOpt = nn.NewAdam(t.Actor, cfg.ActorLR)
	t.c1Opt = nn.NewAdam(t.Critic1, cfg.CriticLR)
	t.c2Opt = nn.NewAdam(t.Critic2, cfg.CriticLR)
	t.actorOpt.MaxNorm = cfg.MaxGradNorm
	t.c1Opt.MaxNorm = cfg.MaxGradNorm
	t.c2Opt.MaxNorm = cfg.MaxGradNorm
	t.actorGrads = t.Actor.NewGrads()
	t.c1Grads = t.Critic1.NewGrads()
	t.c2Grads = t.Critic2.NewGrads()
	t.saBuf = make([]float64, cfg.StateDim+cfg.ActionDim)
	return t, nil
}

// Act returns the deterministic policy's action for state, each dimension
// in [0,1].
func (t *TD3) Act(state []float64) []float64 {
	return t.Actor.Forward(state)
}

// ActNoisy returns the policy action perturbed with N(0, sigma²) exploration
// noise and clipped back into [0,1].
func (t *TD3) ActNoisy(rng *rand.Rand, state []float64, sigma float64) []float64 {
	a := t.Act(state)
	for i := range a {
		a[i] = mat.Clip(a[i]+sigma*rng.NormFloat64(), 0, 1)
	}
	return a
}

// QValues evaluates both online critics at (state, action). The Twin-Q
// Optimizer (Algorithm 1) consumes min(q1, q2) as its cost-free quality
// indicator.
func (t *TD3) QValues(state, action []float64) (q1, q2 float64) {
	sa := t.concat(state, action)
	return t.Critic1.Forward(sa)[0], t.Critic2.Forward(sa)[0]
}

// ActTo computes the deterministic policy action for state into dst using
// ar for scratch, allocating nothing once ar is warm. Bit-identical to Act.
func (t *TD3) ActTo(ar *nn.Arena, state, dst []float64) {
	t.Actor.ForwardBatch(ar, state, 1, dst)
}

// QValuesBatch evaluates both online critics at (state, actions[r]) for r in
// [0, k), writing Critic1 outputs to q1 and Critic2 outputs to q2. actions
// is row-major (k x ActionDim). The state columns' partial dot products — the
// state embedding — are computed once per critic and seed every candidate's
// accumulators, and each critic scores the whole batch as one lane-major pass
// (see nn.ForwardBatchPrefix), so the cost per extra candidate is only the
// action-column work. Results are bit-identical to k sequential QValues
// calls; the batched Twin-Q optimizer depends on that.
func (t *TD3) QValuesBatch(ar *nn.Arena, state, actions []float64, k int, q1, q2 []float64) {
	if len(state) != t.Cfg.StateDim {
		panic(fmt.Sprintf("rl: QValuesBatch state dim %d, want %d", len(state), t.Cfg.StateDim))
	}
	if len(actions) < k*t.Cfg.ActionDim {
		panic(fmt.Sprintf("rl: QValuesBatch actions len %d, want %d", len(actions), k*t.Cfg.ActionDim))
	}
	if len(q1) < k || len(q2) < k {
		panic(fmt.Sprintf("rl: QValuesBatch output len %d/%d, want %d", len(q1), len(q2), k))
	}
	t.Critic1.ForwardBatchPrefix(ar, state, actions, k, q1)
	t.Critic2.ForwardBatchPrefix(ar, state, actions, k, q2)
}

// QBatch scores candidate batches against one state with the per-critic
// state embeddings hoisted: SetState computes each critic's state-column
// partial dots once, and every subsequent Score reuses them, so chunked
// searches (the Twin-Q optimizer scores a few chunks per Suggest, all under
// the same state) pay the state work once instead of per chunk. Score is
// bit-identical to QValuesBatch, which is bit-identical to sequential
// QValues calls.
type QBatch struct {
	t      *TD3
	u1, u2 []float64
	xt     []float64 // lane-major candidate batch, packed once per Score
	set    bool
}

// NewQBatch returns a batch scorer bound to t's online critics.
func (t *TD3) NewQBatch() *QBatch {
	return &QBatch{
		t:  t,
		u1: make([]float64, t.Critic1.Layers[0].W.Rows),
		u2: make([]float64, t.Critic2.Layers[0].W.Rows),
	}
}

// Agent returns the agent the scorer is bound to.
func (q *QBatch) Agent() *TD3 { return q.t }

// SetState computes the state embeddings for subsequent Score calls. It must
// be called again after any critic weight update.
func (q *QBatch) SetState(state []float64) {
	if len(state) != q.t.Cfg.StateDim {
		panic(fmt.Sprintf("rl: QBatch state dim %d, want %d", len(state), q.t.Cfg.StateDim))
	}
	q.t.Critic1.Layers[0].W.MulVecColsTo(q.u1, state, 0)
	q.t.Critic2.Layers[0].W.MulVecColsTo(q.u2, state, 0)
	q.set = true
}

// Score evaluates both critics at (state, actions[r]) for r in [0, k) under
// the state fixed by SetState, writing Critic1 outputs to q1 and Critic2
// outputs to q2. actions is row-major (k x ActionDim).
func (q *QBatch) Score(ar *nn.Arena, actions []float64, k int, q1, q2 []float64) {
	if !q.set {
		panic("rl: QBatch.Score before SetState")
	}
	if len(actions) < k*q.t.Cfg.ActionDim {
		panic(fmt.Sprintf("rl: QBatch actions len %d, want %d", len(actions), k*q.t.Cfg.ActionDim))
	}
	if len(q1) < k || len(q2) < k {
		panic(fmt.Sprintf("rl: QBatch output len %d/%d, want %d", len(q1), len(q2), k))
	}
	// Pack the candidate batch lane-major once and run both critics over it.
	kp := (k + 7) &^ 7
	dim := q.t.Cfg.ActionDim
	if len(q.xt) < dim*kp {
		q.xt = make([]float64, dim*kp)
	}
	nn.PackLanes(q.xt, actions, dim, k, kp)
	q.ScoreLanes(ar, q.xt, kp, k, q1, q2)
}

// ScoreLanes is Score on an already lane-major candidate batch: xt holds
// ActionDim columns of kp lanes each (kp a multiple of 8, >= k) with every
// lane finite — nn.PackLanes produces this layout, and callers that generate
// candidates straight into lane-major storage (the Twin-Q walk) skip the
// transpose entirely.
func (q *QBatch) ScoreLanes(ar *nn.Arena, xt []float64, kp, k int, q1, q2 []float64) {
	if !q.set {
		panic("rl: QBatch.ScoreLanes before SetState")
	}
	if len(q1) < k || len(q2) < k {
		panic(fmt.Sprintf("rl: QBatch output len %d/%d, want %d", len(q1), len(q2), k))
	}
	q.t.Critic1.ForwardBatchSeededLanes(ar, q.u1, q.t.Cfg.StateDim, xt, kp, k, q1)
	q.t.Critic2.ForwardBatchSeededLanes(ar, q.u2, q.t.Cfg.StateDim, xt, kp, k, q2)
}

// MinQ returns min(Q1, Q2) at (state, action).
func (t *TD3) MinQ(state, action []float64) float64 {
	q1, q2 := t.QValues(state, action)
	if q2 < q1 {
		return q2
	}
	return q1
}

func (t *TD3) concat(state, action []float64) []float64 {
	if len(state) != t.Cfg.StateDim || len(action) != t.Cfg.ActionDim {
		panic(fmt.Sprintf("rl: concat dims state=%d action=%d, want %d/%d",
			len(state), len(action), t.Cfg.StateDim, t.Cfg.ActionDim))
	}
	copy(t.saBuf, state)
	copy(t.saBuf[t.Cfg.StateDim:], action)
	return t.saBuf
}

// TrainStats summarizes one Train call.
type TrainStats struct {
	CriticLoss float64
	MeanQ      float64
	// TDErrors holds the per-sample signed TD errors Q1(s,a) - y in batch
	// order, ready for PrioritySampler.UpdatePriorities (which takes their
	// magnitude). The slice is agent-owned scratch: it stays valid until the
	// agent's next Train call, which overwrites it, so callers must consume
	// or copy it before training again.
	TDErrors []float64
	// ActorUpdated reports whether this step performed the delayed policy
	// and target updates.
	ActorUpdated bool
}

// Train performs one TD3 update from the mini-batch: both critics always,
// actor and targets every PolicyDelay-th call. The whole mini-batch runs
// lane-major through each network (see trainScratch), bit-identical to a
// per-sample update loop, and a warmed agent allocates nothing here.
func (t *TD3) Train(rng *rand.Rand, batch Batch) TrainStats {
	n := batch.Len()
	if n == 0 {
		panic("rl: Train on empty batch")
	}
	sc := &t.scratch

	// Bootstrap targets y_i with target policy smoothing and the min of the
	// twin target critics.
	y := sc.bootstrap(rng, batch, t.ActorTarget, t.Critic1T, t.Critic2T,
		t.Cfg.Gamma, true, t.Cfg.TargetNoiseStd, t.Cfg.TargetNoiseClip)

	// Critic regression towards y with importance weights.
	kp := sc.packBatch(batch, t.Cfg.StateDim, t.Cfg.ActionDim)
	q1 := t.Critic1.ForwardLanes(&sc.crit1, sc.sa, kp, n)
	q2 := t.Critic2.ForwardLanes(&sc.crit2, sc.sa, kp, n)
	g1, g2 := grow(&sc.g1, kp), grow(&sc.g2, kp)
	clear(g1[n:])
	clear(g2[n:])
	td := grow(&sc.td, n)
	var loss, sumQ float64
	for i := 0; i < n; i++ {
		w := 1.0
		if batch.Weights != nil {
			w = batch.Weights[i]
		}
		d1 := q1[i] - y[i]
		d2 := q2[i] - y[i]
		g1[i] = w * d1
		g2[i] = w * d2
		loss += w * 0.5 * (d1*d1 + d2*d2)
		sumQ += q1[i]
		td[i] = d1
	}
	t.Critic1.BackwardBatch(&sc.crit1, g1, t.c1Grads, nil, 0, 0)
	t.Critic2.BackwardBatch(&sc.crit2, g2, t.c2Grads, nil, 0, 0)
	scale := 1.0 / float64(n)
	t.c1Opt.Step(t.Critic1, t.c1Grads, scale)
	t.c2Opt.Step(t.Critic2, t.c2Grads, scale)
	stats := TrainStats{CriticLoss: loss * scale, MeanQ: sumQ * scale, TDErrors: td}

	t.updates++
	if t.updates%t.Cfg.PolicyDelay == 0 {
		// Deterministic policy gradient on J = E[Q1(s, actor(s))], through
		// the critic Critic1 as just updated.
		sc.actorStep(t.Actor, t.Critic1, t.actorOpt, t.actorGrads, n, kp)
		t.ActorTarget.SoftUpdate(t.Actor, t.Cfg.Tau)
		t.Critic1T.SoftUpdate(t.Critic1, t.Cfg.Tau)
		t.Critic2T.SoftUpdate(t.Critic2, t.Cfg.Tau)
		stats.ActorUpdated = true
	}
	return stats
}

// Updates returns the number of Train calls performed.
func (t *TD3) Updates() int { return t.updates }
