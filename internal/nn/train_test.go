package nn

import (
	"math"
	"math/rand"
	"testing"

	"deepcat/internal/mat"
)

// forEachLaneKernel runs f under every MulLanes backend this CPU can run.
func forEachLaneKernel(t *testing.T, f func(t *testing.T)) {
	for _, name := range mat.LaneKernels() {
		t.Run(name, func(t *testing.T) {
			defer mat.UseLaneKernel(name)()
			f(t)
		})
	}
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestBackwardBatchMatchesOracle is the batched-training bit-exactness
// property: for random shapes, activations and batch sizes 1..33, one
// ForwardLanes + BackwardBatch must reproduce the per-sample oracle —
// ForwardTape and Backward accumulated into a zeroed Grads, sample by
// sample — bit for bit: outputs, every weight and bias gradient, and the
// input gradient of a random column block.
func TestBackwardBatchMatchesOracle(t *testing.T) {
	forEachLaneKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		var tp BatchTape
		for trial := 0; trial < 80; trial++ {
			m := randNet(rng)
			k := 1 + trial%33
			kp := (k + 7) &^ 7
			in, out := m.InSize(), m.OutSize()
			x := make([]float64, k*in)
			for i := range x {
				x[i] = 2 * rng.NormFloat64()
			}
			gradOut := make([]float64, k*out)
			for i := range gradOut {
				gradOut[i] = rng.NormFloat64()
				if rng.Intn(5) == 0 {
					gradOut[i] = 0 // the oracle skips zero multipliers
				}
			}
			inOff := rng.Intn(in)
			nIn := 1 + rng.Intn(in-inOff)

			want := m.NewGrads()
			wantIn := make([][]float64, k)
			wantOut := make([][]float64, k)
			for r := 0; r < k; r++ {
				tape := m.ForwardTape(x[r*in : (r+1)*in])
				wantOut[r] = tape.Output()
				wantIn[r] = m.Backward(tape, gradOut[r*out:(r+1)*out], want)
			}

			xt := make([]float64, in*kp)
			PackLanes(xt, x, in, k, kp)
			gt := make([]float64, out*kp)
			PackLanes(gt, gradOut, out, k, kp)
			got := m.NewGrads()
			for _, w := range got.W {
				w.Fill(math.NaN()) // BackwardBatch must overwrite, not accumulate
			}
			dIn := make([]float64, nIn*kp)
			y := m.ForwardLanes(&tp, xt, kp, k)
			m.BackwardBatch(&tp, gt, got, dIn, inOff, nIn)

			for r := 0; r < k; r++ {
				for o := 0; o < out; o++ {
					if !bitsEqual(y[o*kp+r], wantOut[r][o]) {
						t.Fatalf("trial %d k=%d: output[%d][%d] = %v, want %v", trial, k, r, o, y[o*kp+r], wantOut[r][o])
					}
				}
				for c := 0; c < nIn; c++ {
					if g, w := dIn[c*kp+r], wantIn[r][inOff+c]; !bitsEqual(g, w) {
						t.Fatalf("trial %d k=%d: dIn[%d][%d] = %v, want %v", trial, k, r, inOff+c, g, w)
					}
				}
			}
			for i := range m.Layers {
				for j, w := range want.W[i].Data {
					if g := got.W[i].Data[j]; !bitsEqual(g, w) {
						t.Fatalf("trial %d k=%d: layer %d dW[%d] = %v, want %v", trial, k, i, j, g, w)
					}
				}
				for j, w := range want.B[i] {
					if g := got.B[i][j]; !bitsEqual(g, w) {
						t.Fatalf("trial %d k=%d: layer %d dB[%d] = %v, want %v", trial, k, i, j, g, w)
					}
				}
			}
		}
	})
}

// TestBackwardBatchSteadyStateAllocs: a warmed tape trains without
// allocating, at its warm-up batch size or any smaller one.
func TestBackwardBatchSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	m := NewMLP(rng, []int{41, 64, 64, 1}, []Activation{ReLU, ReLU, Linear})
	g := m.NewGrads()
	xt := mat.RandVec(rng, 41*32, 0, 1)
	gt := mat.RandVec(rng, 32, -1, 1)
	dIn := make([]float64, 32*32)
	var tp BatchTape
	step := func(k int) {
		kp := (k + 7) &^ 7
		m.ForwardLanes(&tp, xt[:41*kp], kp, k)
		m.BackwardBatch(&tp, gt[:kp], g, dIn[:32*kp], 9, 32)
	}
	for i := 0; i < 3; i++ {
		step(32)
	}
	for _, k := range []int{32, 17, 3} {
		if n := testing.AllocsPerRun(20, func() { step(k) }); n != 0 {
			t.Errorf("k=%d: %.1f allocs per forward+backward after warm-up, want 0", k, n)
		}
	}
}

// TestBackwardBatchArgChecks covers the panic contract.
func TestBackwardBatchArgChecks(t *testing.T) {
	m := newTestNet(1) // 4 -> 8 -> 8 -> 3
	mustPanic := func(desc string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", desc)
			}
		}()
		f()
	}
	var tp BatchTape
	mustPanic("backward before forward", func() { m.BackwardBatch(&tp, make([]float64, 24), nil, nil, 0, 0) })
	mustPanic("kp not a multiple of 8", func() { m.ForwardLanes(&tp, make([]float64, 4*9), 9, 9) })
	mustPanic("short input", func() { m.ForwardLanes(&tp, make([]float64, 4*8-1), 8, 8) })
	m.ForwardLanes(&tp, make([]float64, 4*8), 8, 8)
	mustPanic("short gradOut", func() { m.BackwardBatch(&tp, make([]float64, 23), nil, nil, 0, 0) })
	mustPanic("input block out of range", func() { m.BackwardBatch(&tp, make([]float64, 24), nil, make([]float64, 16), 3, 2) })
	mustPanic("short dIn", func() { m.BackwardBatch(&tp, make([]float64, 24), nil, make([]float64, 15), 2, 2) })
}
