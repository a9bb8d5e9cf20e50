package rl

import (
	"fmt"
	"math/rand"

	"deepcat/internal/mat"
	"deepcat/internal/nn"
)

// trainScratch is an agent's training workspace: one lane-major tape per
// network role and the minibatch buffers, reused across Train calls so a
// warmed agent trains without allocating. Every pass runs the whole
// minibatch at once (nn.ForwardLanes / nn.BackwardBatch) and is
// bit-identical to the per-sample loop it replaces; the oracle tests in
// train_test.go hold both agents to that.
//
// The scratch belongs to one agent, which has one owner at a time, and it
// is never serialized: TD3State and checkpoints hold weights and optimizer
// moments only.
type trainScratch struct {
	actor, crit1, crit2 nn.BatchTape

	sa     []float64 // lane-major critic input (state, action), (S+A) × kp
	saNext []float64 // lane-major target input (s', smoothed π'(s')), (S+A) × kp
	live   []int     // indices of the non-Done samples, in batch order
	y      []float64 // bootstrap targets
	td     []float64 // TrainStats.TDErrors
	g1, g2 []float64 // lane-major critic output gradients, 1 × kp
	dA     []float64 // lane-major ∂Q/∂a, A × kp
}

// lanesFor pads a batch size to the lane multiple MulLanes requires.
func lanesFor(n int) int { return (n + 7) &^ 7 }

// grow returns (*buf)[:n], reallocating only when the capacity is short.
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// packLaneRows writes the first dim entries of row(r), for r in [0, k),
// into units [u0, u0+dim) of the lane-major block xt (kp lanes per unit),
// zeroing the pad lanes.
func packLaneRows(xt []float64, kp, u0, dim int, row func(r int) []float64, k int) {
	for r := 0; r < k; r++ {
		v := row(r)
		if len(v) != dim {
			panic(fmt.Sprintf("rl: Train sample %d has a %d-vector, want %d", r, len(v), dim))
		}
		for j, x := range v {
			xt[(u0+j)*kp+r] = x
		}
	}
	for j := u0; j < u0+dim; j++ {
		clear(xt[j*kp+k : (j+1)*kp])
	}
}

// bootstrap computes the critic targets y_i = r_i + γ·min_c Q'_c(s'_i, a'_i)
// with a'_i = π'(s'_i), or y_i = r_i for Done samples. With smooth set, a'_i
// gets TD3's target policy smoothing, clip(a'_i + clip(ε, ±noiseClip), 0, 1)
// with ε ~ N(0, noiseStd²) drawn in (sample, action-dim) order for the
// non-Done samples only — the per-sample loop's draw order. critT2 may be
// nil (DDPG's single target critic).
func (sc *trainScratch) bootstrap(rng *rand.Rand, batch Batch, actorT, critT1, critT2 *nn.MLP,
	gamma float64, smooth bool, noiseStd, noiseClip float64) []float64 {
	trs := batch.Transitions
	y := grow(&sc.y, len(trs))
	sc.live = sc.live[:0]
	for i, tr := range trs {
		y[i] = tr.Reward
		if !tr.Done {
			sc.live = append(sc.live, i)
		}
	}
	m := len(sc.live)
	if m == 0 {
		return y
	}
	sdim, adim := actorT.InSize(), actorT.OutSize()
	kp := lanesFor(m)
	xt := grow(&sc.saNext, (sdim+adim)*kp)
	packLaneRows(xt, kp, 0, sdim, func(r int) []float64 { return trs[sc.live[r]].NextState }, m)
	aNext := actorT.ForwardLanes(&sc.actor, xt[:sdim*kp], kp, m)
	for r := 0; r < m; r++ {
		for j := 0; j < adim; j++ {
			a := aNext[j*kp+r]
			if smooth {
				eps := mat.Clip(noiseStd*rng.NormFloat64(), -noiseClip, noiseClip)
				a = mat.Clip(a+eps, 0, 1)
			}
			xt[(sdim+j)*kp+r] = a
		}
	}
	for j := sdim; j < sdim+adim; j++ {
		clear(xt[j*kp+m : (j+1)*kp])
	}
	q1 := critT1.ForwardLanes(&sc.crit1, xt, kp, m)
	var q2 []float64
	if critT2 != nil {
		q2 = critT2.ForwardLanes(&sc.crit2, xt, kp, m)
	}
	for r, i := range sc.live {
		q := q1[r]
		if q2 != nil && q2[r] < q {
			q = q2[r]
		}
		y[i] += gamma * q
	}
	return y
}

// packBatch writes the minibatch's (state, action) pairs lane-major into
// sc.sa and returns the padded lane count.
func (sc *trainScratch) packBatch(batch Batch, sdim, adim int) int {
	trs := batch.Transitions
	n := len(trs)
	kp := lanesFor(n)
	xt := grow(&sc.sa, (sdim+adim)*kp)
	packLaneRows(xt, kp, 0, sdim, func(r int) []float64 { return trs[r].State }, n)
	packLaneRows(xt, kp, sdim, adim, func(r int) []float64 { return trs[r].Action }, n)
	return kp
}

// actorStep performs one deterministic policy gradient step on
// J = E[Q(s, π(s))] over the n packed samples: the actor's batched forward,
// the critic at (s, π(s)), the critic's input gradient for the action block
// only, and the actor's backward with −∂Q/∂a. The critic must already carry
// this Train call's updated weights; BackwardBatch transposes the live
// weights, so nothing stale is read.
func (sc *trainScratch) actorStep(actor, critic *nn.MLP, opt *nn.Adam, g *nn.Grads, n, kp int) {
	sdim, adim := actor.InSize(), actor.OutSize()
	a := actor.ForwardLanes(&sc.actor, sc.sa[:sdim*kp], kp, n)
	// The critic input becomes (s, π(s)); the state block is unchanged and
	// is the actor tape's input.
	copy(sc.sa[sdim*kp:(sdim+adim)*kp], a)
	critic.ForwardLanes(&sc.crit1, sc.sa, kp, n)
	ones := grow(&sc.g1, kp)
	for r := range ones {
		ones[r] = 0
		if r < n {
			ones[r] = 1
		}
	}
	dA := grow(&sc.dA, adim*kp)
	critic.BackwardBatch(&sc.crit1, ones, nil, dA, sdim, adim)
	// Gradient ascent on Q => descend on -Q.
	for j := range dA {
		dA[j] = -1 * dA[j]
	}
	actor.BackwardBatch(&sc.actor, dA, g, nil, 0, 0)
	opt.Step(actor, g, 1.0/float64(n))
}
