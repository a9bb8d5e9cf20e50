package nn

import (
	"fmt"

	"deepcat/internal/mat"
)

// The per-sample training path, kept as the oracle the batched one
// (ForwardLanes / BackwardBatch) must match bit for bit.

// Tape records the intermediate activations of one forward pass so that
// Backward can compute exact gradients for that sample.
type Tape struct {
	// inputs[i] is the input to layer i; inputs[0] aliases the caller's x.
	inputs [][]float64
	// outputs[i] is the post-activation output of layer i.
	outputs [][]float64
}

// Output returns the network output recorded on the tape.
func (t *Tape) Output() []float64 { return t.outputs[len(t.outputs)-1] }

// ForwardTape runs a forward pass recording every layer's activations.
func (m *MLP) ForwardTape(x []float64) *Tape {
	if len(x) != m.InSize() {
		panic(fmt.Sprintf("nn: ForwardTape input length %d, want %d", len(x), m.InSize()))
	}
	t := &Tape{
		inputs:  make([][]float64, len(m.Layers)),
		outputs: make([][]float64, len(m.Layers)),
	}
	cur := x
	for i, l := range m.Layers {
		t.inputs[i] = cur
		next := make([]float64, l.outSize())
		l.W.MulVecTo(next, cur)
		for j := range next {
			next[j] = l.Act.apply(next[j] + l.B[j])
		}
		t.outputs[i] = next
		cur = next
	}
	return t
}

// Backward backpropagates gradOut (∂loss/∂output for the sample recorded on
// tape) through the network, accumulating parameter gradients into g (which
// may be nil if only the input gradient is wanted) and returning
// ∂loss/∂input. The tape must come from this network's ForwardTape, and the
// weights must not have changed in between.
func (m *MLP) Backward(tape *Tape, gradOut []float64, g *Grads) []float64 {
	if len(gradOut) != m.OutSize() {
		panic(fmt.Sprintf("nn: Backward grad length %d, want %d", len(gradOut), m.OutSize()))
	}
	delta := mat.CloneSlice(gradOut)
	for i := len(m.Layers) - 1; i >= 0; i-- {
		l := m.Layers[i]
		out := tape.outputs[i]
		// delta := gradOut ⊙ σ'(y)
		for j := range delta {
			delta[j] *= l.Act.derivFromOutput(out[j])
		}
		if g != nil {
			g.W[i].AddOuterScaled(delta, tape.inputs[i], 1)
			for j, d := range delta {
				g.B[i][j] += d
			}
		}
		prev := make([]float64, l.inSize())
		l.W.MulVecTransTo(prev, delta)
		delta = prev
	}
	return delta
}

// InputGrad returns ∂(Σ selector·output)/∂input for input x without
// accumulating parameter gradients; the deterministic policy gradient uses
// it to obtain ∂Q/∂a from a critic.
func (m *MLP) InputGrad(x, selector []float64) []float64 {
	t := m.ForwardTape(x)
	return m.Backward(t, selector, nil)
}

// Zero clears the accumulator before a per-sample accumulation.
func (g *Grads) Zero() {
	for i := range g.W {
		g.W[i].Zero()
		for j := range g.B[i] {
			g.B[i][j] = 0
		}
	}
}
