package nn

import (
	"fmt"

	"deepcat/internal/mat"
)

// Batched training.
//
// ForwardLanes runs a minibatch through the network lane-major — sample r
// in lane r of every unit, the layout of mat.MulLanes — and records every
// layer's activations on a BatchTape. BackwardBatch then backpropagates a
// lane-major output gradient through the recorded pass with three GEMM
// forms of the per-sample kernels:
//
//   - weight grads: MulLanes(Δ[out × k], Xrm[k × inPad]), where Δ holds the
//     layer's output deltas and Xrm is the layer input transposed to
//     row-major. Each entry accumulates its k products from zero in
//     ascending sample order, which is exactly what k per-sample
//     AddOuterScaled calls into a zeroed Grads compute;
//   - bias grads: in-order sums over the live lanes;
//   - input grads: MulLanes on a transposed copy of the weights, built from
//     the live weights at every BackwardBatch and only for the column block
//     the caller needs (none for layer 0 unless asked).
//
// The per-sample path skips a zero multiplier where these GEMMs add the
// ±0 product instead. Both accumulators start at +0 and IEEE addition of
// ±0 to +0, or to any non-zero value, leaves it unchanged, so the two agree
// bit for bit whenever the other factor is finite. DESIGN.md ("Batched
// training") has the full argument; the per-sample oracle in
// oracle_test.go and the agent-level tests in internal/rl pin it down.

// BatchTape records one lane-major forward pass over a minibatch so that
// BackwardBatch can compute that batch's gradients. Activations and all
// backward scratch live in the tape's own Arena, so a warmed tape trains
// without allocating. A tape has a single owner and records one pass at a
// time: the next ForwardLanes overwrites it, and the slices it handed out
// become invalid. The zero value is ready to use.
type BatchTape struct {
	ar    Arena
	in    []float64 // lane-major input, caller-owned
	k, kp int
	mark  int // arena offset just past the recorded activations
}

// ForwardLanes runs m over the k samples of the lane-major input xt
// (InSize units of kp lanes each, kp a multiple of 8 >= k, pad lanes
// finite), records the pass on tp, and returns the lane-major output
// (OutSize units of kp lanes; a view into tp). Live lanes are bit-identical
// to Forward on each sample. xt is read, never written, and must stay
// unchanged until the tape's last BackwardBatch. The pass runs on the
// calling goroutine.
func (m *MLP) ForwardLanes(tp *BatchTape, xt []float64, kp, k int) []float64 {
	if kp < k || kp%8 != 0 {
		panic(fmt.Sprintf("nn: ForwardLanes kp %d for k %d, want a multiple of 8 >= k", kp, k))
	}
	if len(xt) < m.InSize()*kp {
		panic(fmt.Sprintf("nn: ForwardLanes xt len %d, want %d", len(xt), m.InSize()*kp))
	}
	tp.ar.Workers = 1
	m.forwardBatch(&tp.ar, nil, nil, 0, nil, m.InSize(), xt, kp, k, nil)
	tp.in, tp.k, tp.kp = xt, k, kp
	tp.mark = tp.ar.off
	return tp.ar.outs[len(m.Layers)-1]
}

// BackwardBatch backpropagates the lane-major output gradient gradOut
// (OutSize units of kp lanes) through the pass m recorded on tp. gradOut is
// read, never written.
//
// When g is non-nil it is overwritten with the minibatch's parameter
// gradients: for every weight and bias, the sum over the k live lanes in
// lane order, bit-identical to k per-sample backward passes accumulated
// into a zeroed Grads.
//
// When dIn is non-nil it receives ∂/∂input for the nIn input columns
// starting at inOff, lane-major (nIn units of kp lanes). The deterministic
// policy gradient takes the action block of a critic's input gradient this
// way, without computing the state block.
func (m *MLP) BackwardBatch(tp *BatchTape, gradOut []float64, g *Grads, dIn []float64, inOff, nIn int) {
	kp, k := tp.kp, tp.k
	if kp == 0 {
		panic("nn: BackwardBatch on an empty tape")
	}
	if len(gradOut) < m.OutSize()*kp {
		panic(fmt.Sprintf("nn: BackwardBatch gradOut len %d, want %d", len(gradOut), m.OutSize()*kp))
	}
	if dIn != nil && (inOff < 0 || nIn <= 0 || inOff+nIn > m.InSize() || len(dIn) < nIn*kp) {
		panic(fmt.Sprintf("nn: BackwardBatch input block [%d,%d) of %d, dIn len %d", inOff, inOff+nIn, m.InSize(), len(dIn)))
	}
	ar := &tp.ar
	ar.off = tp.mark
	outs := ar.outs

	// Two delta buffers wide enough for any layer, used in turn; each
	// layer's other scratch (Xrm, transposes) reuses the region after
	// them, so a tape holds one layer's temporaries, not all of them.
	width := m.OutSize()
	for _, l := range m.Layers[1:] {
		width = max(width, l.inSize())
	}
	delta, next := ar.grab(width*kp), ar.grab(width*kp)
	temps := ar.off
	delta = delta[:m.OutSize()*kp]
	copy(delta, gradOut)
	for i := len(m.Layers) - 1; i >= 0; i-- {
		l := m.Layers[i]
		ar.off = temps
		in := tp.in
		if i > 0 {
			in = outs[i-1]
		}
		// δ ⊙= σ'(y), as the per-sample pass does before anything else.
		l.Act.scaleByDeriv(delta, outs[i][:len(delta)])
		if g != nil {
			layerGrads(ar, l, delta, in, k, kp, g.W[i], g.B[i])
		}
		if i == 0 {
			if dIn != nil {
				wt := transposeCols(ar, l.W, inOff, nIn)
				wt.MulLanes(dIn, delta, kp, kp, mat.LaneOpts{})
			}
			return
		}
		prev := next[:l.inSize()*kp]
		wt := transposeCols(ar, l.W, 0, l.inSize())
		wt.MulLanes(prev, delta, kp, kp, mat.LaneOpts{})
		delta, next = prev, delta[:cap(delta)]
	}
}

// layerGrads writes one layer's weight and bias gradients for the k live
// lanes of delta (out × kp) and the layer input in (inSize × kp).
func layerGrads(ar *Arena, l *Dense, delta, in []float64, k, kp int, gw *mat.Matrix, gb []float64) {
	nOut, nIn := l.outSize(), l.inSize()
	inPad := (nIn + 7) &^ 7
	// Xrm: the input transposed to row-major, one sample per row, pad
	// columns zeroed so they stay finite.
	xrm := ar.grab(k * inPad)
	for c := 0; c < nIn; c++ {
		col := in[c*kp : c*kp+k]
		for r, v := range col {
			xrm[r*inPad+c] = v
		}
	}
	for r := 0; r < k; r++ {
		clear(xrm[r*inPad+nIn : (r+1)*inPad])
	}
	// Δ as a matrix whose columns are samples: row o is unit o's deltas,
	// and the NCols window keeps the pad lanes out of the sum.
	dm := mat.Matrix{Rows: nOut, Cols: kp, Data: delta[:nOut*kp]}
	dst := gw.Data
	if inPad != nIn {
		dst = ar.grab(nOut * inPad)
	}
	dm.MulLanes(dst, xrm, inPad, inPad, mat.LaneOpts{NCols: k})
	if inPad != nIn {
		for o := 0; o < nOut; o++ {
			copy(gw.Data[o*nIn:(o+1)*nIn], dst[o*inPad:])
		}
	}
	for o := range gb {
		var s float64
		for _, d := range delta[o*kp : o*kp+k] {
			s += d
		}
		gb[o] = s
	}
}

// transposeCols returns columns [c0, c0+n) of w transposed (n × w.Rows),
// in arena scratch.
func transposeCols(ar *Arena, w *mat.Matrix, c0, n int) mat.Matrix {
	t := ar.grab(n * w.Rows)
	for o := 0; o < w.Rows; o++ {
		for c, v := range w.Data[o*w.Cols+c0 : o*w.Cols+c0+n] {
			t[c*w.Rows+o] = v
		}
	}
	return mat.Matrix{Rows: n, Cols: w.Rows, Data: t}
}
