package mat

import (
	"fmt"
	"sort"
)

// Lane-major batched kernels.
//
// A lane block stores the activations of K independent samples ("lanes")
// side by side: entry (unit j, lane r) lives at xt[j*stride + r], so one
// unit's values across the whole batch are contiguous. That layout lets one
// weight traversal score every lane at once — the GEMM form of MulVecTo —
// and, on amd64, lets the SIMD kernels broadcast a weight and multiply it
// against 4 or 8 lanes per instruction.
//
// Bit-exactness contract: for every (row i, lane r) the result is computed
// as a single left-to-right accumulation
//
//	acc = init[i]; acc += W[i,c0]*x[c0]; acc += W[i,c0+1]*x[c0+1]; ...
//
// with one multiply and one add per term and no fused multiply-add, followed
// by acc += bias[i] and the optional ReLU clamp. This is exactly the
// operation sequence of MulVecTo plus Activation.apply, so a lane-major pass
// over K samples is bit-identical to K sequential per-sample passes — the
// property the batched Twin-Q scorer's equivalence tests pin down. Every
// backend (AVX-512, AVX2, pure Go) preserves the same per-lane chain; they
// only differ in how many independent lanes advance per instruction.

// LaneOpts parameterizes MulLanes.
type LaneOpts struct {
	// ColOff and NCols select the column window [ColOff, ColOff+NCols) of
	// the weight matrix; NCols == 0 means "through the last column". The
	// Twin-Q scorer uses the window to skip the state columns whose
	// contribution is precomputed once per Suggest.
	ColOff, NCols int
	// Init holds the per-row starting accumulator values (the precomputed
	// prefix dot); nil starts every accumulator at zero.
	Init []float64
	// Bias, when non-nil, is added to each row's accumulator after the dot,
	// mirroring Dense layer biases.
	Bias []float64
	// ReLU clamps negative post-bias values to zero inside the kernel
	// (bit-identical to Activation.apply for ReLU, including NaN and
	// signed-zero handling). Transcendental activations are applied by the
	// caller in a separate elementwise pass.
	ReLU bool
}

// MulLanes computes dst[i*stride+r] = init(i) + Σ_j W[i, ColOff+j]*xt[j*stride+r]
// (+ bias, + optional ReLU) for i in [0, Rows) and r in [0, lanes), with j
// ascending — see the bit-exactness contract above. xt must hold NCols units
// of `stride` lanes each; dst must hold Rows units of `stride` lanes. lanes
// must be a positive multiple of 8 so the SIMD backends never touch a
// partial vector; callers pad their batch to the next multiple of 8 (the
// nn.Arena does this automatically).
func (m *Matrix) MulLanes(dst, xt []float64, stride, lanes int, opt LaneOpts) {
	cols := opt.NCols
	if cols == 0 {
		cols = m.Cols - opt.ColOff
	}
	if opt.ColOff < 0 || opt.ColOff+cols > m.Cols {
		panic(fmt.Sprintf("mat: MulLanes column window [%d,%d) outside %d cols", opt.ColOff, opt.ColOff+cols, m.Cols))
	}
	if lanes <= 0 || lanes%8 != 0 || lanes > stride {
		panic(fmt.Sprintf("mat: MulLanes lanes %d (stride %d) must be a positive multiple of 8 and <= stride", lanes, stride))
	}
	if len(xt) < (cols-1)*stride+lanes {
		panic(fmt.Sprintf("mat: MulLanes xt len %d, need %d", len(xt), (cols-1)*stride+lanes))
	}
	if len(dst) < (m.Rows-1)*stride+lanes {
		panic(fmt.Sprintf("mat: MulLanes dst len %d, need %d", len(dst), (m.Rows-1)*stride+lanes))
	}
	if opt.Init != nil && len(opt.Init) != m.Rows {
		panic(fmt.Sprintf("mat: MulLanes init len %d, want %d", len(opt.Init), m.Rows))
	}
	if opt.Bias != nil && len(opt.Bias) != m.Rows {
		panic(fmt.Sprintf("mat: MulLanes bias len %d, want %d", len(opt.Bias), m.Rows))
	}
	if m.Rows == 0 || cols == 0 {
		// Degenerate: dst is just init+bias broadcast (or zero).
		mulLanesGo(m.Data[opt.ColOff:], m.Cols, m.Rows, cols, xt, dst, stride, lanes, opt.Init, opt.Bias, opt.ReLU)
		return
	}
	laneKernel(m.Data[opt.ColOff:], m.Cols, m.Rows, cols, xt, dst, stride, lanes, opt.Init, opt.Bias, opt.ReLU)
}

// MulVecColsTo computes dst[i] = Σ_j W[i, colOff+j]*x[j] for j in
// [0, len(x)), the column-windowed form of MulVecTo. The Twin-Q scorer uses
// it to fold a shared input prefix (the state) into per-row accumulator
// seeds once per batch. No bias is added: the partial sum must continue
// through MulLanes before the layer bias applies.
func (m *Matrix) MulVecColsTo(dst, x []float64, colOff int) {
	if colOff < 0 || colOff+len(x) > m.Cols {
		panic(fmt.Sprintf("mat: MulVecColsTo window [%d,%d) outside %d cols", colOff, colOff+len(x), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: MulVecColsTo len(dst)=%d, want %d", len(dst), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols+colOff : i*m.Cols+colOff+len(x)]
		var sum float64
		for j, w := range row {
			sum += w * x[j]
		}
		dst[i] = sum
	}
}

// laneKernelFunc is the signature shared by every MulLanes backend. w points
// at the first selected column of row 0 and rows advance by wstride.
type laneKernelFunc func(w []float64, wstride, rows, cols int, xt, dst []float64, stride, lanes int, init, bias []float64, relu bool)

// laneKernel is the backend selected at init time (see lanes_amd64.go); it
// defaults to the portable Go implementation.
var laneKernel laneKernelFunc = mulLanesGo

// laneKernelName names the active backend, for logs and tests.
var laneKernelName = "go"

// laneKernels holds every backend this CPU can run, keyed by name; init
// adds the SIMD backends it detects.
var laneKernels = map[string]laneKernelFunc{"go": mulLanesGo}

// LaneKernel reports which MulLanes backend is active ("avx512", "avx2" or
// "go").
func LaneKernel() string { return laneKernelName }

// LaneKernels returns the names of every MulLanes backend this CPU can run,
// sorted; "go" is always among them.
func LaneKernels() []string {
	names := make([]string, 0, len(laneKernels))
	for name := range laneKernels {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// UseLaneKernel makes the named backend the active one and returns a
// function that restores the previous choice. Every backend produces the
// same bits, so this changes speed only; packages built on MulLanes use it
// to check their own bit-identity contracts under each backend. It must not
// run concurrently with MulLanes, and it panics on a name LaneKernels does
// not list.
func UseLaneKernel(name string) (restore func()) {
	kern, ok := laneKernels[name]
	if !ok {
		panic(fmt.Sprintf("mat: lane kernel %q not available (have %v)", name, LaneKernels()))
	}
	prev, prevName := laneKernel, laneKernelName
	laneKernel, laneKernelName = kern, name
	return func() { laneKernel, laneKernelName = prev, prevName }
}

// mulLanesGo is the portable reference backend. The lane loop is blocked by
// four so the accumulator chains of independent lanes interleave, which
// hides floating-point add latency; each individual chain still runs
// strictly left to right.
func mulLanesGo(w []float64, wstride, rows, cols int, xt, dst []float64, stride, lanes int, init, bias []float64, relu bool) {
	for i := 0; i < rows; i++ {
		wrow := w[i*wstride:]
		var seed float64
		if init != nil {
			seed = init[i]
		}
		out := dst[i*stride:]
		var r int
		for ; r+4 <= lanes; r += 4 {
			a0, a1, a2, a3 := seed, seed, seed, seed
			for j := 0; j < cols; j++ {
				wj := wrow[j]
				col := xt[j*stride+r:]
				a0 += wj * col[0]
				a1 += wj * col[1]
				a2 += wj * col[2]
				a3 += wj * col[3]
			}
			out[r+0] = a0
			out[r+1] = a1
			out[r+2] = a2
			out[r+3] = a3
		}
		for ; r < lanes; r++ {
			acc := seed
			for j := 0; j < cols; j++ {
				acc += wrow[j] * xt[j*stride+r]
			}
			out[r] = acc
		}
		if bias != nil {
			b := bias[i]
			for r := 0; r < lanes; r++ {
				out[r] += b
			}
		}
		if relu {
			for r := 0; r < lanes; r++ {
				if !(out[r] > 0) {
					out[r] = 0
				}
			}
		}
	}
}
