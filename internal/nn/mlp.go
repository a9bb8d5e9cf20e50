package nn

import (
	"fmt"
	"math/rand"

	"deepcat/internal/mat"
)

// Dense is one fully connected layer: y = act(W·x + b). Fields are exported
// so that networks serialize with encoding/gob.
type Dense struct {
	W   *mat.Matrix // out x in weight matrix
	B   []float64   // out bias vector
	Act Activation
}

// outSize returns the number of units in the layer.
func (d *Dense) outSize() int { return d.W.Rows }

// inSize returns the layer's input dimension.
func (d *Dense) inSize() int { return d.W.Cols }

// MLP is a multi-layer perceptron. Construct it with NewMLP; the zero value
// is not usable.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds a network with the given layer sizes and activations.
// sizes[0] is the input dimension; each subsequent entry is a layer width,
// so len(acts) must be len(sizes)-1. Weights use Xavier initialization from
// rng; the final layer additionally gets the small uniform init (±3e-3)
// customary for DDPG/TD3 output layers, which keeps initial policy outputs
// near the center of the action range.
func NewMLP(rng *rand.Rand, sizes []int, acts []Activation) *MLP {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("nn: NewMLP needs at least 2 sizes, got %d", len(sizes)))
	}
	if len(acts) != len(sizes)-1 {
		panic(fmt.Sprintf("nn: NewMLP got %d activations for %d layers", len(acts), len(sizes)-1))
	}
	m := &MLP{Layers: make([]*Dense, len(acts))}
	for i := range acts {
		in, out := sizes[i], sizes[i+1]
		if in <= 0 || out <= 0 {
			panic(fmt.Sprintf("nn: non-positive layer size %d -> %d", in, out))
		}
		l := &Dense{W: mat.New(out, in), B: make([]float64, out), Act: acts[i]}
		if i == len(acts)-1 {
			l.W.RandUniform(rng, 3e-3)
			for j := range l.B {
				l.B[j] = (rng.Float64()*2 - 1) * 3e-3
			}
		} else {
			l.W.XavierInit(rng, in, out)
		}
		m.Layers[i] = l
	}
	return m
}

// InSize returns the network input dimension.
func (m *MLP) InSize() int { return m.Layers[0].inSize() }

// OutSize returns the network output dimension.
func (m *MLP) OutSize() int { return m.Layers[len(m.Layers)-1].outSize() }

// NumParams returns the total number of trainable scalars.
func (m *MLP) NumParams() int {
	var n int
	for _, l := range m.Layers {
		n += l.W.Rows*l.W.Cols + len(l.B)
	}
	return n
}

// Forward runs inference on a single input vector and returns a freshly
// allocated output. It is safe for concurrent use as long as no goroutine is
// mutating the weights.
func (m *MLP) Forward(x []float64) []float64 {
	if len(x) != m.InSize() {
		panic(fmt.Sprintf("nn: Forward input length %d, want %d", len(x), m.InSize()))
	}
	cur := x
	for _, l := range m.Layers {
		next := make([]float64, l.outSize())
		l.W.MulVecTo(next, cur)
		for i := range next {
			next[i] = l.Act.apply(next[i] + l.B[i])
		}
		cur = next
	}
	return cur
}

// Grads holds parameter gradients with the same shapes as an MLP's layers.
// BackwardBatch overwrites it with a mini-batch's summed gradients. Create
// one with NewGrads and reuse it across batches.
type Grads struct {
	W []*mat.Matrix
	B [][]float64
}

// NewGrads allocates a zeroed gradient accumulator shaped like m.
func (m *MLP) NewGrads() *Grads {
	g := &Grads{W: make([]*mat.Matrix, len(m.Layers)), B: make([][]float64, len(m.Layers))}
	for i, l := range m.Layers {
		g.W[i] = mat.New(l.W.Rows, l.W.Cols)
		g.B[i] = make([]float64, len(l.B))
	}
	return g
}

// Clone returns a deep copy of the network (weights only; no optimizer
// state).
func (m *MLP) Clone() *MLP {
	c := &MLP{Layers: make([]*Dense, len(m.Layers))}
	for i, l := range m.Layers {
		c.Layers[i] = &Dense{W: l.W.Clone(), B: mat.CloneSlice(l.B), Act: l.Act}
	}
	return c
}

// CopyFrom copies src's weights into m. The architectures must match.
func (m *MLP) CopyFrom(src *MLP) {
	m.mustMatch(src)
	for i, l := range m.Layers {
		l.W.CopyFrom(src.Layers[i].W)
		copy(l.B, src.Layers[i].B)
	}
}

// SoftUpdate performs the Polyak averaging used for target networks:
// m = (1-tau)·m + tau·src.
func (m *MLP) SoftUpdate(src *MLP, tau float64) {
	m.mustMatch(src)
	for i, l := range m.Layers {
		l.W.Lerp(src.Layers[i].W, tau)
		for j := range l.B {
			l.B[j] = (1-tau)*l.B[j] + tau*src.Layers[i].B[j]
		}
	}
}

func (m *MLP) mustMatch(src *MLP) {
	if len(m.Layers) != len(src.Layers) {
		panic(fmt.Sprintf("nn: architecture mismatch: %d vs %d layers", len(m.Layers), len(src.Layers)))
	}
	for i, l := range m.Layers {
		s := src.Layers[i]
		if l.W.Rows != s.W.Rows || l.W.Cols != s.W.Cols {
			panic(fmt.Sprintf("nn: layer %d shape mismatch %dx%d vs %dx%d", i, l.W.Rows, l.W.Cols, s.W.Rows, s.W.Cols))
		}
	}
}
