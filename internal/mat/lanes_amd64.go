//go:build amd64

package mat

// SIMD backends for MulLanes. Both vectorize across lanes — one weight is
// broadcast and multiplied against 8 (AVX-512) or 4 (AVX2) lanes per
// instruction — so each lane's accumulator chain stays a strict
// multiply-then-add sequence in ascending column order, bit-identical to the
// portable backend and to per-sample MulVecTo. No FMA is emitted: fusing
// would drop the intermediate rounding and change results.

//go:noescape
func mulLanesAVX512(w *float64, wstride, rows, cols int64, xt, dst *float64, stride, lanes int64, init, bias *float64, relu int64)

//go:noescape
func mulLanesAVX2(w *float64, wstride, rows, cols int64, xt, dst *float64, stride, lanes int64, init, bias *float64, relu int64)

func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbvAsm() (lo, hi uint32)

func init() {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return
	}
	_, _, c1, _ := cpuidAsm(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return
	}
	xcr0, _ := xgetbvAsm()
	_, b7, _, _ := cpuidAsm(7, 0)
	const (
		avx2Bit    = 1 << 5
		avx512fBit = 1 << 16
		// XCR0: SSE+AVX state for AVX2; opmask+ZMM_Hi256+Hi16_ZMM on top
		// for AVX-512.
		ymmState = 0x6
		zmmState = 0xe6
	)
	if b7&avx2Bit != 0 && xcr0&ymmState == ymmState {
		laneKernels["avx2"] = mulLanesAVX2Wrap
		laneKernel, laneKernelName = mulLanesAVX2Wrap, "avx2"
	}
	if b7&avx512fBit != 0 && xcr0&zmmState == zmmState {
		laneKernels["avx512"] = mulLanesAVX512Wrap
		laneKernel, laneKernelName = mulLanesAVX512Wrap, "avx512"
	}
}

// wrap adapts the slice-level kernel signature to the pointer-level asm
// entry points. Degenerate shapes (no rows or no columns) take the portable
// path so the asm never sees a zero trip count.
func mulLanesAVX512Wrap(w []float64, wstride, rows, cols int, xt, dst []float64, stride, lanes int, init, bias []float64, relu bool) {
	if rows == 0 || cols == 0 {
		mulLanesGo(w, wstride, rows, cols, xt, dst, stride, lanes, init, bias, relu)
		return
	}
	mulLanesAVX512(&w[0], int64(wstride), int64(rows), int64(cols), &xt[0], &dst[0],
		int64(stride), int64(lanes), ptrOrNil(init), ptrOrNil(bias), boolInt64(relu))
}

func mulLanesAVX2Wrap(w []float64, wstride, rows, cols int, xt, dst []float64, stride, lanes int, init, bias []float64, relu bool) {
	if rows == 0 || cols == 0 {
		mulLanesGo(w, wstride, rows, cols, xt, dst, stride, lanes, init, bias, relu)
		return
	}
	mulLanesAVX2(&w[0], int64(wstride), int64(rows), int64(cols), &xt[0], &dst[0],
		int64(stride), int64(lanes), ptrOrNil(init), ptrOrNil(bias), boolInt64(relu))
}

func ptrOrNil(s []float64) *float64 {
	if s == nil {
		return nil
	}
	return &s[0]
}

func boolInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
