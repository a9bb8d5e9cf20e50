package nn

import (
	"math"

	"deepcat/internal/mat"
)

// Adam implements the Adam optimizer (Kingma & Ba, 2015) over an MLP's
// parameters. One Adam instance is bound to one network's architecture; it
// keeps per-parameter first and second moment estimates.
type Adam struct {
	LR      float64 // learning rate (alpha)
	Beta1   float64 // first-moment decay
	Beta2   float64 // second-moment decay
	Eps     float64 // numerical stabilizer
	MaxNorm float64 // if > 0, global gradient-norm clipping threshold

	t  int
	mW []*mat.Matrix
	vW []*mat.Matrix
	mB [][]float64
	vB [][]float64
}

// NewAdam creates an optimizer for network m with the given learning rate
// and conventional defaults beta1=0.9, beta2=0.999, eps=1e-8.
func NewAdam(m *MLP, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	a.mW = make([]*mat.Matrix, len(m.Layers))
	a.vW = make([]*mat.Matrix, len(m.Layers))
	a.mB = make([][]float64, len(m.Layers))
	a.vB = make([][]float64, len(m.Layers))
	for i, l := range m.Layers {
		a.mW[i] = mat.New(l.W.Rows, l.W.Cols)
		a.vW[i] = mat.New(l.W.Rows, l.W.Cols)
		a.mB[i] = make([]float64, len(l.B))
		a.vB[i] = make([]float64, len(l.B))
	}
	return a
}

// Steps returns the number of optimizer steps taken so far.
func (a *Adam) Steps() int { return a.t }

// Step applies one Adam update to m using the accumulated gradients in g
// scaled by scale (callers typically pass 1/batchSize). If MaxNorm > 0 the
// scaled gradient is first clipped to that global L2 norm.
func (a *Adam) Step(m *MLP, g *Grads, scale float64) {
	if a.MaxNorm > 0 {
		var sq float64
		for i := range g.W {
			for _, v := range g.W[i].Data {
				sv := v * scale
				sq += sv * sv
			}
			for _, v := range g.B[i] {
				sv := v * scale
				sq += sv * sv
			}
		}
		if norm := math.Sqrt(sq); norm > a.MaxNorm {
			scale *= a.MaxNorm / norm
		}
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, l := range m.Layers {
		a.update(l.W.Data, g.W[i].Data, a.mW[i].Data, a.vW[i].Data, scale, c1, c2)
		a.update(l.B, g.B[i], a.mB[i], a.vB[i], scale, c1, c2)
	}
}

// update applies one Adam step to the parameters p with gradients g and
// moments mo, ve. The hyper-parameters are read into locals once, so the
// loop neither reloads them nor recomputes 1-β per element; the arithmetic
// per element is unchanged.
func (a *Adam) update(p, g, mo, ve []float64, scale, c1, c2 float64) {
	b1, b2, lr, eps := a.Beta1, a.Beta2, a.LR, a.Eps
	ob1, ob2 := 1-b1, 1-b2
	mo, ve, p = mo[:len(g)], ve[:len(g)], p[:len(g)]
	for k, gv := range g {
		gv *= scale
		mo[k] = b1*mo[k] + ob1*gv
		ve[k] = b2*ve[k] + ob2*gv*gv
		p[k] -= lr * (mo[k] / c1) / (math.Sqrt(ve[k]/c2) + eps)
	}
}
