// Package mat provides the dense float64 vector and matrix kernels used by
// the neural-network, Gaussian-process and reinforcement-learning layers of
// the DeepCAT reproduction.
//
// The package is deliberately small and allocation-conscious: matrices are
// stored row-major in a single contiguous slice, every operation that can
// write into a caller-supplied destination does so, and all stochastic
// initializers take an explicit *rand.Rand so that callers control
// determinism.
//
// Dimension mismatches are programmer errors and panic; they are never
// returned as errors.
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	// Data holds the entries in row-major order: element (i, j) is
	// Data[i*Cols+j]. Its length is always Rows*Cols.
	Data []float64
}

// New returns a zero-valued rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows. The data is
// copied.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) checkIndex(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage. Mutating the
// returned slice mutates the matrix.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m. The shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: copy shape mismatch %dx%d <- %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets every entry of m to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every entry of m to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Scale multiplies every entry of m by s in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaled adds s*other to m in place. Shapes must match.
func (m *Matrix) AddScaled(other *Matrix, s float64) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("mat: addScaled shape mismatch %dx%d + %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	for i, v := range other.Data {
		m.Data[i] += s * v
	}
}

// Lerp sets m = (1-t)*m + t*other in place; used for Polyak (soft target)
// updates where t is the mixing coefficient tau.
func (m *Matrix) Lerp(other *Matrix, t float64) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("mat: lerp shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	for i, v := range other.Data {
		m.Data[i] = (1-t)*m.Data[i] + t*v
	}
}

// Transpose returns a newly allocated transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// MulVecTo computes dst = m * x for a column vector x of length m.Cols,
// writing the m.Rows results into dst. dst and x must not alias.
func (m *Matrix) MulVecTo(dst, x []float64) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("mat: mulVec len(x)=%d, want %d", len(x), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: mulVec len(dst)=%d, want %d", len(dst), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var sum float64
		for j, w := range row {
			sum += w * x[j]
		}
		dst[i] = sum
	}
}

// MulVecTransTo computes dst = mᵀ * x for a vector x of length m.Rows,
// writing the m.Cols results into dst. dst and x must not alias.
func (m *Matrix) MulVecTransTo(dst, x []float64) {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("mat: mulVecTrans len(x)=%d, want %d", len(x), m.Rows))
	}
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("mat: mulVecTrans len(dst)=%d, want %d", len(dst), m.Cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			dst[j] += w * xi
		}
	}
}

// AddOuterScaled adds s * x*yᵀ to m in place, where len(x) == m.Rows and
// len(y) == m.Cols. It is the per-sample weight-gradient kernel of a dense
// layer; the training oracles in nn and rl hold nn.BackwardBatch to it bit
// for bit.
func (m *Matrix) AddOuterScaled(x, y []float64, s float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic(fmt.Sprintf("mat: addOuter dims %dx%d vs %dx%d", len(x), len(y), m.Rows, m.Cols))
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		sx := s * xi
		for j, yj := range y {
			row[j] += sx * yj
		}
	}
}

// Mul returns the matrix product m * b as a new matrix.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("mat: mul shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := New(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		arow := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, a := range arow {
			if a == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
	return out
}

// RandUniform fills m with samples from U(-bound, bound).
func (m *Matrix) RandUniform(rng *rand.Rand, bound float64) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * bound
	}
}

// XavierInit fills m with the Glorot/Xavier uniform initialization for a
// dense layer with fanIn inputs and fanOut outputs.
func (m *Matrix) XavierInit(rng *rand.Rand, fanIn, fanOut int) {
	bound := math.Sqrt(6.0 / float64(fanIn+fanOut))
	m.RandUniform(rng, bound)
}

// MaxAbs returns the largest absolute entry of m (0 for an empty matrix).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Equal reports whether m and b have identical shape and entries within tol.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a small human-readable dump, useful in tests and debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix %dx%d", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		for i := 0; i < m.Rows; i++ {
			s += fmt.Sprintf("\n  %v", m.Row(i))
		}
	}
	return s
}
