package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// laneBackends returns every MulLanes backend that can run on this machine,
// always including the portable reference.
func laneBackends() map[string]laneKernelFunc { return laneKernels }

// packLanes transposes k row-major samples (k x cols) into a lane-major
// block with the given stride, zeroing the pad lanes.
func packLanes(x []float64, k, cols, stride int) []float64 {
	xt := make([]float64, cols*stride)
	for j := 0; j < cols; j++ {
		for r := 0; r < k; r++ {
			xt[j*stride+r] = x[r*cols+j]
		}
	}
	return xt
}

// TestMulLanesMatchesMulVecTo is the kernel-level bit-exactness property:
// for random shapes, every backend must reproduce per-sample MulVecTo plus
// bias plus ReLU bit for bit, including the column-window/init form used by
// the Twin-Q prefix split.
func TestMulLanesMatchesMulVecTo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, kern := range laneBackends() {
		for trial := 0; trial < 60; trial++ {
			rows := 1 + rng.Intn(70)
			cols := 1 + rng.Intn(70)
			k := 1 + rng.Intn(70)
			stride := (k + 7) &^ 7
			relu := trial%2 == 0
			withBias := trial%3 != 0
			w := New(rows, cols)
			w.RandUniform(rng, 2)
			x := make([]float64, k*cols)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			var bias []float64
			if withBias {
				bias = RandVec(rng, rows, -1, 1)
			}

			xt := packLanes(x, k, cols, stride)
			dst := make([]float64, rows*stride)
			for i := range dst {
				dst[i] = math.NaN() // kernels must fully overwrite live lanes
			}
			kern(w.Data, cols, rows, cols, xt, dst, stride, stride, nil, bias, relu)

			want := make([]float64, rows)
			for r := 0; r < k; r++ {
				w.MulVecTo(want, x[r*cols:(r+1)*cols])
				for i := 0; i < rows; i++ {
					v := want[i]
					if withBias {
						v += bias[i]
					}
					if relu && !(v > 0) {
						v = 0
					}
					got := dst[i*stride+r]
					if got != v || math.Signbit(got) != math.Signbit(v) {
						t.Fatalf("%s trial %d: rows=%d cols=%d k=%d relu=%v bias=%v: dst[%d,%d] = %v, want %v (bit mismatch)",
							name, trial, rows, cols, k, relu, withBias, i, r, got, v)
					}
				}
			}
		}
	}
}

// TestMulLanesColumnWindowInit checks the prefix-split form: seeding the
// accumulators with the state-prefix dot and running MulLanes over the
// remaining columns must equal one full-width MulVecTo chain bit for bit.
func TestMulLanesColumnWindowInit(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for name, kern := range laneBackends() {
		for trial := 0; trial < 40; trial++ {
			rows := 1 + rng.Intn(40)
			pre := 1 + rng.Intn(20)
			suf := 1 + rng.Intn(40)
			k := 1 + rng.Intn(33)
			stride := (k + 7) &^ 7
			w := New(rows, pre+suf)
			w.RandUniform(rng, 1.5)
			bias := RandVec(rng, rows, -0.5, 0.5)
			prefix := RandVec(rng, pre, -2, 2)
			sufX := make([]float64, k*suf)
			for i := range sufX {
				sufX[i] = rng.NormFloat64()
			}

			init := make([]float64, rows)
			w.MulVecColsTo(init, prefix, 0)
			xt := packLanes(sufX, k, suf, stride)
			dst := make([]float64, rows*stride)
			kern(w.Data[pre:], w.Cols, rows, suf, xt, dst, stride, stride, init, bias, true)

			full := make([]float64, pre+suf)
			copy(full, prefix)
			want := make([]float64, rows)
			for r := 0; r < k; r++ {
				copy(full[pre:], sufX[r*suf:(r+1)*suf])
				w.MulVecTo(want, full)
				for i := 0; i < rows; i++ {
					v := want[i] + bias[i]
					if !(v > 0) {
						v = 0
					}
					if got := dst[i*stride+r]; got != v {
						t.Fatalf("%s trial %d: rows=%d pre=%d suf=%d k=%d: dst[%d,%d] = %v, want %v",
							name, trial, rows, pre, suf, k, i, r, got, v)
					}
				}
			}
		}
	}
}

// TestMulLanesReLUEdgeCases pins the clamp semantics the backends must share
// with Activation.apply: NaN and negative zero both map to +0.
func TestMulLanesReLUEdgeCases(t *testing.T) {
	for name, kern := range laneBackends() {
		// One row, identity-ish weights chosen so the accumulator becomes
		// the interesting value directly.
		w := New(1, 1)
		w.Data[0] = 1
		in := []float64{math.NaN(), math.Inf(-1), math.Copysign(0, -1), 0, -3.5, 2.25}
		k := len(in)
		stride := (k + 7) &^ 7
		xt := make([]float64, stride)
		copy(xt, in)
		dst := make([]float64, stride)
		kern(w.Data, 1, 1, 1, xt, dst, stride, stride, nil, nil, true)
		want := []float64{0, 0, 0, 0, 0, 2.25}
		for i, v := range want {
			if dst[i] != v || math.Signbit(dst[i]) {
				t.Fatalf("%s: relu(%v) = %v (signbit %v), want %v", name, in[i], dst[i], math.Signbit(dst[i]), v)
			}
		}
	}
}

// TestMulLanesArgChecks covers the panic contract.
func TestMulLanesArgChecks(t *testing.T) {
	w := New(2, 4)
	xt := make([]float64, 4*8)
	dst := make([]float64, 2*8)
	mustPanic := func(desc string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", desc)
			}
		}()
		f()
	}
	mustPanic("lanes not multiple of 8", func() { w.MulLanes(dst, xt, 8, 5, LaneOpts{}) })
	mustPanic("lanes beyond stride", func() { w.MulLanes(dst, xt, 8, 16, LaneOpts{}) })
	mustPanic("column window out of range", func() { w.MulLanes(dst, xt, 8, 8, LaneOpts{ColOff: 3, NCols: 2}) })
	mustPanic("short dst", func() { w.MulLanes(dst[:8], xt, 8, 8, LaneOpts{}) })
	mustPanic("bad init length", func() { w.MulLanes(dst, xt, 8, 8, LaneOpts{Init: make([]float64, 3)}) })
	mustPanic("prefix window", func() { w.MulVecColsTo(make([]float64, 2), make([]float64, 5), 0) })
}

func BenchmarkMulLanes64(b *testing.B) {
	for _, shape := range []struct{ rows, cols int }{{64, 32}, {64, 64}, {1, 64}} {
		b.Run(fmt.Sprintf("%dx%d", shape.rows, shape.cols), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			w := New(shape.rows, shape.cols)
			w.RandUniform(rng, 1)
			bias := RandVec(rng, shape.rows, -1, 1)
			const lanes = 64
			xt := RandVec(rng, shape.cols*lanes, -1, 1)
			dst := make([]float64, shape.rows*lanes)
			b.SetBytes(int64(8 * shape.rows * shape.cols * lanes))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.MulLanes(dst, xt, lanes, lanes, LaneOpts{Bias: bias, ReLU: true})
			}
		})
	}
}
