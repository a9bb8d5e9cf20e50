package rl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deepcat/internal/mat"
	"deepcat/internal/nn"
)

// The per-sample update loops that TD3.Train and DDPG.Train replaced, kept
// as the oracle the batched path must match bit for bit. They drive the
// agent's own optimizers and gradient buffers, so an oracle agent and a
// batched agent built from the same seed stay comparable step by step.

// refTape is one sample's per-layer inputs and post-activation outputs.
type refTape struct{ in, out [][]float64 }

func refApply(a nn.Activation, x float64) float64 {
	switch a {
	case nn.ReLU:
		if x > 0 {
			return x
		}
		return 0
	case nn.Tanh:
		return math.Tanh(x)
	case nn.Sigmoid:
		return 1 / (1 + math.Exp(-x))
	}
	return x
}

func refDeriv(a nn.Activation, y float64) float64 {
	switch a {
	case nn.ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case nn.Tanh:
		return 1 - y*y
	case nn.Sigmoid:
		return y * (1 - y)
	}
	return 1
}

func refForward(m *nn.MLP, x []float64) refTape {
	var tp refTape
	cur := x
	for _, l := range m.Layers {
		next := make([]float64, l.W.Rows)
		l.W.MulVecTo(next, cur)
		for j := range next {
			next[j] = refApply(l.Act, next[j]+l.B[j])
		}
		tp.in = append(tp.in, cur)
		tp.out = append(tp.out, next)
		cur = next
	}
	return tp
}

func (tp refTape) output() []float64 { return tp.out[len(tp.out)-1] }

// refBackward accumulates one sample's parameter gradients into g (unless
// nil) and returns ∂/∂input: the per-sample AddOuterScaled/MulVecTransTo
// chain, skipping zero multipliers.
func refBackward(m *nn.MLP, tp refTape, gradOut []float64, g *nn.Grads) []float64 {
	delta := mat.CloneSlice(gradOut)
	for i := len(m.Layers) - 1; i >= 0; i-- {
		l := m.Layers[i]
		for j := range delta {
			delta[j] *= refDeriv(l.Act, tp.out[i][j])
		}
		if g != nil {
			g.W[i].AddOuterScaled(delta, tp.in[i], 1)
			for j, d := range delta {
				g.B[i][j] += d
			}
		}
		prev := make([]float64, l.W.Cols)
		l.W.MulVecTransTo(prev, delta)
		delta = prev
	}
	return delta
}

// zeroGrads clears g before a per-sample accumulation.
func zeroGrads(g *nn.Grads) {
	for i := range g.W {
		g.W[i].Zero()
		clear(g.B[i])
	}
}

func concatSA(s, a []float64) []float64 {
	return append(append([]float64(nil), s...), a...)
}

// refActorStep is the per-sample deterministic policy gradient step.
func refActorStep(actor, critic *nn.MLP, opt *nn.Adam, g *nn.Grads, batch Batch, sdim int) {
	zeroGrads(g)
	for _, tr := range batch.Transitions {
		aTape := refForward(actor, tr.State)
		dSA := refBackward(critic, refForward(critic, concatSA(tr.State, aTape.output())), []float64{1}, nil)
		dA := dSA[sdim:]
		neg := make([]float64, len(dA))
		mat.ScaleTo(neg, -1, dA)
		refBackward(actor, aTape, neg, g)
	}
	opt.Step(actor, g, 1.0/float64(batch.Len()))
}

func refTrainTD3(t *TD3, rng *rand.Rand, batch Batch) TrainStats {
	n := batch.Len()
	stats := TrainStats{TDErrors: make([]float64, n)}
	targets := make([]float64, n)
	for i, tr := range batch.Transitions {
		y := tr.Reward
		if !tr.Done {
			aNext := t.ActorTarget.Forward(tr.NextState)
			for j := range aNext {
				eps := mat.Clip(t.Cfg.TargetNoiseStd*rng.NormFloat64(),
					-t.Cfg.TargetNoiseClip, t.Cfg.TargetNoiseClip)
				aNext[j] = mat.Clip(aNext[j]+eps, 0, 1)
			}
			sa := concatSA(tr.NextState, aNext)
			q1 := t.Critic1T.Forward(sa)[0]
			q2 := t.Critic2T.Forward(sa)[0]
			if q2 < q1 {
				q1 = q2
			}
			y += t.Cfg.Gamma * q1
		}
		targets[i] = y
	}
	zeroGrads(t.c1Grads)
	zeroGrads(t.c2Grads)
	var loss, sumQ float64
	for i, tr := range batch.Transitions {
		w := 1.0
		if batch.Weights != nil {
			w = batch.Weights[i]
		}
		sa := concatSA(tr.State, tr.Action)
		tape1 := refForward(t.Critic1, sa)
		q1 := tape1.output()[0]
		d1 := q1 - targets[i]
		refBackward(t.Critic1, tape1, []float64{w * d1}, t.c1Grads)
		tape2 := refForward(t.Critic2, sa)
		q2 := tape2.output()[0]
		d2 := q2 - targets[i]
		refBackward(t.Critic2, tape2, []float64{w * d2}, t.c2Grads)
		loss += w * 0.5 * (d1*d1 + d2*d2)
		sumQ += q1
		stats.TDErrors[i] = d1
	}
	scale := 1.0 / float64(n)
	t.c1Opt.Step(t.Critic1, t.c1Grads, scale)
	t.c2Opt.Step(t.Critic2, t.c2Grads, scale)
	stats.CriticLoss = loss * scale
	stats.MeanQ = sumQ * scale
	t.updates++
	if t.updates%t.Cfg.PolicyDelay == 0 {
		refActorStep(t.Actor, t.Critic1, t.actorOpt, t.actorGrads, batch, t.Cfg.StateDim)
		t.ActorTarget.SoftUpdate(t.Actor, t.Cfg.Tau)
		t.Critic1T.SoftUpdate(t.Critic1, t.Cfg.Tau)
		t.Critic2T.SoftUpdate(t.Critic2, t.Cfg.Tau)
		stats.ActorUpdated = true
	}
	return stats
}

func refTrainDDPG(d *DDPG, batch Batch) TrainStats {
	n := batch.Len()
	stats := TrainStats{TDErrors: make([]float64, n), ActorUpdated: true}
	targets := make([]float64, n)
	for i, tr := range batch.Transitions {
		y := tr.Reward
		if !tr.Done {
			aNext := d.ActorTarget.Forward(tr.NextState)
			y += d.Cfg.Gamma * d.CriticT.Forward(concatSA(tr.NextState, aNext))[0]
		}
		targets[i] = y
	}
	zeroGrads(d.critGrads)
	var loss, sumQ float64
	for i, tr := range batch.Transitions {
		w := 1.0
		if batch.Weights != nil {
			w = batch.Weights[i]
		}
		tape := refForward(d.Critic, concatSA(tr.State, tr.Action))
		q := tape.output()[0]
		delta := q - targets[i]
		refBackward(d.Critic, tape, []float64{w * delta}, d.critGrads)
		loss += w * 0.5 * delta * delta
		sumQ += q
		stats.TDErrors[i] = delta
	}
	scale := 1.0 / float64(n)
	d.criticOpt.Step(d.Critic, d.critGrads, scale)
	stats.CriticLoss = loss * scale
	stats.MeanQ = sumQ * scale
	refActorStep(d.Actor, d.Critic, d.actorOpt, d.actorGrads, batch, d.Cfg.StateDim)
	d.ActorTarget.SoftUpdate(d.Actor, d.Cfg.Tau)
	d.CriticT.SoftUpdate(d.Critic, d.Cfg.Tau)
	d.updates++
	return stats
}

// oracleBatch draws k transitions from pool (roughly a third Done) with
// nil or random importance weights.
func oracleBatch(rng *rand.Rand, pool []Transition, k int) Batch {
	b := Batch{Transitions: make([]Transition, k)}
	for i := range b.Transitions {
		b.Transitions[i] = pool[rng.Intn(len(pool))]
	}
	if rng.Intn(2) == 0 {
		b.Weights = make([]float64, k)
		for i := range b.Weights {
			b.Weights[i] = 0.1 + rng.Float64()
		}
	}
	return b
}

func oraclePool(rng *rand.Rand, sdim, adim, n int) []Transition {
	pool := make([]Transition, n)
	for i := range pool {
		pool[i] = Transition{
			State:     mat.RandVec(rng, sdim, -1, 2),
			Action:    mat.RandVec(rng, adim, 0, 1),
			Reward:    rng.NormFloat64(),
			NextState: mat.RandVec(rng, sdim, -1, 2),
			Done:      rng.Intn(3) == 0,
		}
		if pool[i].Done && rng.Intn(2) == 0 {
			pool[i].NextState = nil // Done samples never read s'
		}
	}
	return pool
}

func randomHidden(rng *rand.Rand) []int {
	h := make([]int, 1+rng.Intn(2))
	for i := range h {
		h[i] = 1 + rng.Intn(40)
	}
	return h
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func diffSlices(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			return fmt.Errorf("%s[%d] = %v, want %v (bit mismatch)", what, i, got[i], want[i])
		}
	}
	return nil
}

func diffNets(what string, got, want *nn.MLP) error {
	for i := range got.Layers {
		if err := diffSlices(fmt.Sprintf("%s.W%d", what, i), got.Layers[i].W.Data, want.Layers[i].W.Data); err != nil {
			return err
		}
		if err := diffSlices(fmt.Sprintf("%s.B%d", what, i), got.Layers[i].B, want.Layers[i].B); err != nil {
			return err
		}
	}
	return nil
}

func diffAdam(what string, got, want nn.AdamState) error {
	if got.T != want.T {
		return fmt.Errorf("%s.T = %d, want %d", what, got.T, want.T)
	}
	for i := range got.MW {
		for _, p := range []struct {
			name string
			g, w []float64
		}{
			{"MW", got.MW[i].Data, want.MW[i].Data}, {"VW", got.VW[i].Data, want.VW[i].Data},
			{"MB", got.MB[i], want.MB[i]}, {"VB", got.VB[i], want.VB[i]},
		} {
			if err := diffSlices(fmt.Sprintf("%s.%s%d", what, p.name, i), p.g, p.w); err != nil {
				return err
			}
		}
	}
	return nil
}

func diffStats(got, want TrainStats) error {
	if !sameBits(got.CriticLoss, want.CriticLoss) || !sameBits(got.MeanQ, want.MeanQ) || got.ActorUpdated != want.ActorUpdated {
		return fmt.Errorf("stats loss/meanQ/actor = %v/%v/%v, want %v/%v/%v",
			got.CriticLoss, got.MeanQ, got.ActorUpdated, want.CriticLoss, want.MeanQ, want.ActorUpdated)
	}
	return diffSlices("TDErrors", got.TDErrors, want.TDErrors)
}

func diffTD3(got, want *TD3) error {
	gs, ws := got.CaptureState(), want.CaptureState()
	if gs.Updates != ws.Updates {
		return fmt.Errorf("updates %d, want %d", gs.Updates, ws.Updates)
	}
	for _, n := range []struct {
		name string
		g, w *nn.MLP
	}{
		{"Actor", gs.Actor, ws.Actor}, {"ActorTarget", gs.ActorTarget, ws.ActorTarget},
		{"Critic1", gs.Critic1, ws.Critic1}, {"Critic2", gs.Critic2, ws.Critic2},
		{"Critic1T", gs.Critic1T, ws.Critic1T}, {"Critic2T", gs.Critic2T, ws.Critic2T},
	} {
		if err := diffNets(n.name, n.g, n.w); err != nil {
			return err
		}
	}
	for _, o := range []struct {
		name string
		g, w nn.AdamState
	}{
		{"ActorOpt", gs.ActorOpt, ws.ActorOpt}, {"Critic1Opt", gs.Critic1Opt, ws.Critic1Opt}, {"Critic2Opt", gs.Critic2Opt, ws.Critic2Opt},
	} {
		if err := diffAdam(o.name, o.g, o.w); err != nil {
			return err
		}
	}
	return nil
}

func diffDDPG(got, want *DDPG) error {
	for _, n := range []struct {
		name string
		g, w *nn.MLP
	}{
		{"Actor", got.Actor, want.Actor}, {"ActorTarget", got.ActorTarget, want.ActorTarget},
		{"Critic", got.Critic, want.Critic}, {"CriticT", got.CriticT, want.CriticT},
	} {
		if err := diffNets(n.name, n.g, n.w); err != nil {
			return err
		}
	}
	if err := diffAdam("ActorOpt", got.actorOpt.State(), want.actorOpt.State()); err != nil {
		return err
	}
	return diffAdam("CriticOpt", got.criticOpt.State(), want.criticOpt.State())
}

// forEachLaneKernel runs f under every MulLanes backend this CPU can run.
func forEachLaneKernel(t *testing.T, f func(t *testing.T)) {
	for _, name := range mat.LaneKernels() {
		t.Run(name, func(t *testing.T) {
			defer mat.UseLaneKernel(name)()
			f(t)
		})
	}
}

const oracleSteps = 50

// TestTD3TrainMatchesPerSampleOracle is the training path's equivalence
// property: on random architectures and seeds, 50 consecutive batched Train
// calls — batch sizes 1..33, mixed Done flags, nil and non-nil importance
// weights, both PolicyDelay phases — leave every weight, target network and
// Adam moment, every TrainStats field and the next random draw bit-identical
// to the per-sample loop.
func TestTD3TrainMatchesPerSampleOracle(t *testing.T) {
	forEachLaneKernel(t, func(t *testing.T) {
		for trial := 0; trial < 6; trial++ {
			rng := rand.New(rand.NewSource(int64(100 + trial)))
			cfg := DefaultTD3Config(1+rng.Intn(12), 1+rng.Intn(10))
			cfg.Hidden = randomHidden(rng)
			cfg.PolicyDelay = 1 + rng.Intn(3)
			cfg.TargetNoiseStd = 0.3 * rng.Float64()
			cfg.TargetNoiseClip = 0.25
			if trial%2 == 1 {
				cfg.MaxGradNorm = 0
			}
			seed := rng.Int63()
			got, err := NewTD3(rand.New(rand.NewSource(seed)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := NewTD3(rand.New(rand.NewSource(seed)), cfg)
			pool := oraclePool(rng, cfg.StateDim, cfg.ActionDim, 64)
			rngGot := rand.New(rand.NewSource(seed + 1))
			rngWant := rand.New(rand.NewSource(seed + 1))
			for step := 0; step < oracleSteps; step++ {
				k := 1 + (step*7+trial)%33
				batch := oracleBatch(rng, pool, k)
				gs := got.Train(rngGot, batch)
				ws := refTrainTD3(want, rngWant, batch)
				if err := diffStats(gs, ws); err != nil {
					t.Fatalf("trial %d step %d (k=%d, cfg %+v): %v", trial, step, k, cfg, err)
				}
				if err := diffTD3(got, want); err != nil {
					t.Fatalf("trial %d step %d (k=%d, cfg %+v): %v", trial, step, k, cfg, err)
				}
			}
			if g, w := rngGot.Int63(), rngWant.Int63(); g != w {
				t.Fatalf("trial %d: next random draw %d, want %d", trial, g, w)
			}
		}
	})
}

// TestDDPGTrainMatchesPerSampleOracle is the same property for DDPG.
func TestDDPGTrainMatchesPerSampleOracle(t *testing.T) {
	forEachLaneKernel(t, func(t *testing.T) {
		for trial := 0; trial < 6; trial++ {
			rng := rand.New(rand.NewSource(int64(200 + trial)))
			cfg := DefaultDDPGConfig(1+rng.Intn(12), 1+rng.Intn(10))
			cfg.Hidden = randomHidden(rng)
			if trial%2 == 1 {
				cfg.MaxGradNorm = 0
			}
			seed := rng.Int63()
			got, err := NewDDPG(rand.New(rand.NewSource(seed)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := NewDDPG(rand.New(rand.NewSource(seed)), cfg)
			pool := oraclePool(rng, cfg.StateDim, cfg.ActionDim, 64)
			rngGot := rand.New(rand.NewSource(seed + 1))
			rngWant := rand.New(rand.NewSource(seed + 1))
			for step := 0; step < oracleSteps; step++ {
				k := 1 + (step*5+trial)%33
				batch := oracleBatch(rng, pool, k)
				gs := got.Train(rngGot, batch)
				ws := refTrainDDPG(want, batch)
				if err := diffStats(gs, ws); err != nil {
					t.Fatalf("trial %d step %d (k=%d): %v", trial, step, k, err)
				}
				if err := diffDDPG(got, want); err != nil {
					t.Fatalf("trial %d step %d (k=%d): %v", trial, step, k, err)
				}
			}
			if g, w := rngGot.Int63(), rngWant.Int63(); g != w {
				t.Fatalf("trial %d: next random draw %d, want %d", trial, g, w)
			}
		}
	})
}

// TestTD3TrainSteadyStateAllocs pins the zero-allocation contract: once an
// agent has trained on its largest batch, Train allocates nothing, at that
// batch size or any smaller one.
func TestTD3TrainSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultTD3Config(9, 32)
	cfg.Hidden = []int{64, 64}
	agent, err := NewTD3(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := oraclePool(rng, cfg.StateDim, cfg.ActionDim, 256)
	full, small := oracleBatch(rng, pool, 32), oracleBatch(rng, pool, 5)
	for i := 0; i < 4; i++ {
		agent.Train(rng, full)
	}
	for _, b := range []Batch{full, small} {
		if n := testing.AllocsPerRun(20, func() { agent.Train(rng, b) }); n != 0 {
			t.Errorf("TD3.Train(k=%d) allocates %.1f times per call after warm-up, want 0", b.Len(), n)
		}
	}
}

// TestDDPGTrainSteadyStateAllocs is the same contract for DDPG.
func TestDDPGTrainSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := DefaultDDPGConfig(9, 32)
	cfg.Hidden = []int{64, 64}
	agent, err := NewDDPG(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := oracleBatch(rng, oraclePool(rng, cfg.StateDim, cfg.ActionDim, 256), 32)
	for i := 0; i < 4; i++ {
		agent.Train(rng, batch)
	}
	if n := testing.AllocsPerRun(20, func() { agent.Train(rng, batch) }); n != 0 {
		t.Errorf("DDPG.Train allocates %.1f times per call after warm-up, want 0", n)
	}
}

// TestTrainTDErrorsAgentOwned pins the TDErrors contract: the slice is the
// agent's scratch, reused by the next Train rather than reallocated.
func TestTrainTDErrorsAgentOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	agent, _ := NewTD3(rng, DefaultTD3Config(3, 2))
	pool := oraclePool(rng, 3, 2, 32)
	first := agent.Train(rng, oracleBatch(rng, pool, 16)).TDErrors
	saved := append([]float64(nil), first...)
	second := agent.Train(rng, oracleBatch(rng, pool, 16)).TDErrors
	if &first[0] != &second[0] {
		t.Fatal("TDErrors reallocated between Train calls; want agent-owned scratch")
	}
	if err := diffSlices("TDErrors", first, saved); err == nil {
		t.Fatal("second Train left the first call's TDErrors untouched; the test no longer checks reuse")
	}
}
