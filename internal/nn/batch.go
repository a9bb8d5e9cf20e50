package nn

import (
	"fmt"
	"runtime"
	"sync"

	"deepcat/internal/mat"
)

// Batched inference.
//
// ForwardBatch evaluates K input rows through the network with one
// lane-major weight traversal per layer (a GEMM) instead of K per-sample
// passes, reusing buffers from a caller-owned Arena so the steady state
// allocates nothing. Per-lane arithmetic follows the exact operation
// sequence of Forward — see the bit-exactness contract in mat/lanes.go —
// so a batched pass is bit-identical to K sequential Forward calls. The
// property tests in batch_test.go and the Twin-Q equivalence test in
// internal/core pin this down.
//
// Training runs on the same kernels: ForwardLanes (train.go) is this
// forward pass with the per-layer activations kept in a BatchTape's Arena,
// and BackwardBatch backpropagates a whole minibatch through them as GEMMs.
// Training passes always run on the calling goroutine.

// Arena owns the scratch buffers of batched forward passes.
//
// Ownership rules: an Arena has a single owner at a time — calls that take
// an Arena may reuse and overwrite everything in it, and slices handed out
// by previous passes become invalid on the next call. It is NOT safe for
// concurrent use; callers that share one across goroutines must serialize
// (the tuning service holds its per-session mutex around Suggest, which is
// what the -race stress test exercises). Zero value is ready to use.
type Arena struct {
	// Workers caps the goroutines one batched pass may shard lanes across;
	// 0 means GOMAXPROCS, 1 disables sharding. Sharding never changes
	// results: lanes are independent, so any partition produces identical
	// bits.
	Workers int

	buf  []float64
	off  int
	outs [][]float64 // per-layer output views, reused across calls
	run  batchRun    // in-flight pass state, reused so shards need no closure
}

// batchRun carries one batched pass's state so lane shards can run as plain
// method calls (including via `go`) without allocating a closure per pass.
type batchRun struct {
	m           *MLP
	xt, init    []float64
	dst         []float64
	outs        [][]float64
	colOff      int
	xDim, kp, k int
}

// NewArena returns an empty arena. Buffers grow on demand and are retained,
// so a warmed arena serves any same-shaped workload without allocating.
func NewArena() *Arena { return &Arena{} }

func (a *Arena) reset() { a.off = 0 }

// grab returns a length-n scratch view. Contents are unspecified.
func (a *Arena) grab(n int) []float64 {
	if a.off+n > len(a.buf) {
		grown := 2*len(a.buf) + n
		a.buf = make([]float64, grown)
		a.off = 0 // older views keep their previous backing array
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// minShardLanes is the smallest lane count worth a goroutine; below it the
// spawn overhead exceeds the kernel time.
const minShardLanes = 16

// ForwardBatch runs inference on k row-major input vectors packed in x
// (k x InSize) and writes the k outputs row-major into dst (k x OutSize).
// Results are bit-identical to calling Forward on each row in turn.
func (m *MLP) ForwardBatch(ar *Arena, x []float64, k int, dst []float64) {
	m.forwardBatch(ar, nil, nil, 0, x, m.InSize(), nil, 0, k, dst)
}

// ForwardBatchPrefix runs inference on k rows that share a common prefix:
// row r of the logical input is concat(prefix, suffix[r]). The first
// layer's contribution of the prefix is computed once and seeds every
// lane's accumulator, which is bit-identical to evaluating the
// concatenated row because the per-unit dot product accumulates left to
// right. The Twin-Q scorer uses this to fold the state embedding out of
// the per-candidate cost.
func (m *MLP) ForwardBatchPrefix(ar *Arena, prefix, suffix []float64, k int, dst []float64) {
	if len(prefix) == 0 || len(prefix) >= m.InSize() {
		panic(fmt.Sprintf("nn: ForwardBatchPrefix prefix length %d, want 1..%d", len(prefix), m.InSize()-1))
	}
	m.forwardBatch(ar, prefix, nil, len(prefix), suffix, m.InSize()-len(prefix), nil, 0, k, dst)
}

// ForwardBatchSeeded is ForwardBatchPrefix with the prefix contribution
// already computed: init must hold layer 0's partial dot products over the
// first colOff input columns (mat.Matrix.MulVecColsTo). Callers that score
// several batches against one unchanged prefix — the Twin-Q search scores a
// few chunks per Suggest — hoist that computation out of the per-chunk cost.
// init is read, never written, and must not alias ar's buffers.
func (m *MLP) ForwardBatchSeeded(ar *Arena, init []float64, colOff int, suffix []float64, k int, dst []float64) {
	m.checkSeeded(init, colOff)
	m.forwardBatch(ar, nil, init, colOff, suffix, m.InSize()-colOff, nil, 0, k, dst)
}

// ForwardBatchSeededLanes is ForwardBatchSeeded on input that is already
// lane-major: xt holds xDim = InSize()-colOff columns of kp lanes each (kp a
// multiple of 8, >= k), the layout PackLanes produces. Pad lanes must hold
// finite values — zero, or stale values from a reused buffer — so they pass
// harmlessly through the activations; their results never reach dst.
// Callers that score one candidate batch through several networks (the
// Twin-Q scorer runs both critics over the same chunk) pack once and share
// xt; it is read, never written, and must not alias ar's buffers.
func (m *MLP) ForwardBatchSeededLanes(ar *Arena, init []float64, colOff int, xt []float64, kp, k int, dst []float64) {
	m.checkSeeded(init, colOff)
	if kp < k || kp%8 != 0 {
		panic(fmt.Sprintf("nn: ForwardBatchSeededLanes kp %d for k %d, want a multiple of 8 >= k", kp, k))
	}
	if len(xt) < (m.InSize()-colOff)*kp {
		panic(fmt.Sprintf("nn: ForwardBatchSeededLanes xt len %d, want %d", len(xt), (m.InSize()-colOff)*kp))
	}
	m.forwardBatch(ar, nil, init, colOff, nil, m.InSize()-colOff, xt, kp, k, dst)
}

func (m *MLP) checkSeeded(init []float64, colOff int) {
	if colOff <= 0 || colOff >= m.InSize() {
		panic(fmt.Sprintf("nn: seeded batch colOff %d, want 1..%d", colOff, m.InSize()-1))
	}
	if len(init) != m.Layers[0].outSize() {
		panic(fmt.Sprintf("nn: seeded batch init len %d, want %d", len(init), m.Layers[0].outSize()))
	}
}

// PackLanes transposes k row-major xDim-wide rows of x into lane-major form
// in dst: column j of the batch occupies dst[j*kp : j*kp+kp] with row r in
// lane r and the kp-k pad lanes zeroed (pad lanes must stay finite so they
// pass harmlessly through activations). kp must be a multiple of 8 >= k.
func PackLanes(dst, x []float64, xDim, k, kp int) {
	if kp < k || kp%8 != 0 {
		panic(fmt.Sprintf("nn: PackLanes kp %d for k %d, want a multiple of 8 >= k", kp, k))
	}
	if len(x) < k*xDim || len(dst) < xDim*kp {
		panic(fmt.Sprintf("nn: PackLanes buffer lengths %d/%d, want >= %d/%d", len(x), len(dst), k*xDim, xDim*kp))
	}
	for j := 0; j < xDim; j++ {
		col := dst[j*kp : j*kp+kp]
		for r := 0; r < k; r++ {
			col[r] = x[r*xDim+j]
		}
		for r := k; r < kp; r++ {
			col[r] = 0
		}
	}
}

func (m *MLP) forwardBatch(ar *Arena, prefix, init []float64, colOff int, x []float64, xDim int, xtIn []float64, kpIn, k int, dst []float64) {
	if k <= 0 {
		panic(fmt.Sprintf("nn: forward batch size %d", k))
	}
	if xtIn == nil && len(x) < k*xDim {
		panic(fmt.Sprintf("nn: forward batch input len %d, want %d", len(x), k*xDim))
	}
	if dst != nil && len(dst) < k*m.OutSize() {
		panic(fmt.Sprintf("nn: forward batch dst len %d, want %d", len(dst), k*m.OutSize()))
	}
	kp := kpIn
	if xtIn == nil {
		kp = (k + 7) &^ 7
	}
	ar.reset()

	// Pack the input lane-major unless the caller already did.
	xt := xtIn
	if xt == nil {
		xt = ar.grab(xDim * kp)
		PackLanes(xt, x, xDim, k, kp)
	}

	// The prefix contribution seeds every lane of layer 0.
	if prefix != nil {
		init = ar.grab(m.Layers[0].outSize())
		m.Layers[0].W.MulVecColsTo(init, prefix, 0)
	}
	if init == nil {
		colOff = 0
	}

	outs := ar.outs[:0]
	for _, l := range m.Layers {
		outs = append(outs, ar.grab(l.outSize()*kp))
	}
	ar.outs = outs

	run := &ar.run
	*run = batchRun{m: m, xt: xt, init: init, dst: dst, outs: outs,
		colOff: colOff, xDim: xDim, kp: kp, k: k}

	nw := ar.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if max := kp / minShardLanes; nw > max {
		nw = max
	}
	if nw <= 1 {
		run.shard(0, kp, nil)
		return
	}
	// Lane ranges are multiples of 8 so SIMD backends never split a vector.
	per := (kp/nw + 7) &^ 7
	var wg sync.WaitGroup
	for r0 := 0; r0 < kp; r0 += per {
		lanes := per
		if r0+lanes > kp {
			lanes = kp - r0
		}
		wg.Add(1)
		go run.shard(r0, lanes, &wg)
	}
	wg.Wait()
}

// shard evaluates lanes [r0, r0+lanes) through every layer and unpacks the
// live ones into dst. Lanes are independent, so disjoint shards touch
// disjoint memory and any partition yields identical bits.
func (b *batchRun) shard(r0, lanes int, wg *sync.WaitGroup) {
	if wg != nil {
		defer wg.Done()
	}
	// The transcendental post-pass only needs the live lanes: pad lanes
	// never reach dst and each lane only ever feeds its own accumulators
	// downstream, so skipping their (expensive) exp calls changes nothing.
	live := b.k - r0
	if live > lanes {
		live = lanes
	}
	cur := b.xt[r0:]
	for li, l := range b.m.Layers {
		out := b.outs[li][r0:]
		opt := mat.LaneOpts{Bias: l.B, ReLU: l.Act == ReLU}
		if li == 0 && b.colOff > 0 {
			opt.ColOff = b.colOff
			opt.NCols = b.xDim
			opt.Init = b.init
		}
		l.W.MulLanes(out, cur, b.kp, lanes, opt)
		if l.Act != ReLU && l.Act != Linear {
			// Kernel applied the bias; finish with the transcendental.
			for i := 0; i < l.outSize(); i++ {
				row := out[i*b.kp : i*b.kp+live]
				for r := range row {
					row[r] = l.Act.apply(row[r])
				}
			}
		}
		cur = out
	}
	// Unpack this shard's live lanes row-major into dst, unless the caller
	// reads the lane-major outputs directly (ForwardLanes).
	if b.dst == nil {
		return
	}
	last := b.outs[len(b.outs)-1][r0:]
	outDim := b.m.OutSize()
	for r := 0; r < lanes && r0+r < b.k; r++ {
		row := b.dst[(r0+r)*outDim : (r0+r+1)*outDim]
		for i := range row {
			row[i] = last[i*b.kp+r]
		}
	}
}
