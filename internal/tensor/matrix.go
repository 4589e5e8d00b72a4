// Package tensor provides the dense linear-algebra substrate used by every
// StreamBrain-Go backend: a row-major matrix type generic over the element
// precision (float64 | float32), cache-blocked and parallel GEMM kernels, and
// the fused vector primitives the BCPNN learning rule is built from.
//
// The package is deliberately free of dependencies (stdlib only) and free of
// hidden global state: parallel kernels take an explicit worker count so the
// compute backends in internal/backend can own their thread budget, mirroring
// the way StreamBrain's OpenMP backend owns its thread team.
//
// Precision (DESIGN.md §9): every kernel is generic over Float, so the same
// source instantiates the float64 reference path and the float32 reduced-
// precision path the paper's bfloat16/posit experiments motivate. On amd64
// with AVX2+FMA the hot inner loops dispatch to SIMD microkernels
// (simd_amd64.s), where float32's doubled lane width is what makes reduced
// precision genuinely faster rather than merely smaller.
package tensor

import (
	"fmt"
	"math"
)

// Float constrains the element precisions the compute stack supports.
type Float interface {
	~float32 | ~float64
}

// Dense is a dense row-major matrix of T.
//
// The zero value is an empty 0×0 matrix. Data is exposed so kernels can
// operate on the raw slice; Data has exactly Rows*Cols elements and row r
// occupies Data[r*Cols : (r+1)*Cols].
type Dense[T Float] struct {
	Rows, Cols int
	Data       []T
}

// Matrix is the float64 instantiation — the precision every trace and
// training accumulator uses (see DESIGN.md §9 for why accumulators stay
// wide).
type Matrix = Dense[float64]

// Matrix32 is the float32 instantiation used by the reduced-precision
// compute path (derived parameters and activations only, never traces).
type Matrix32 = Dense[float32]

// NewDense allocates a zeroed rows×cols matrix of the given precision.
func NewDense[T Float](rows, cols int) *Dense[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Dense[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}
}

// Resize returns a zeroed rows×cols matrix, reusing m's storage when it holds
// enough elements (nil m allocates). Training steps keep their scratch
// matrices through it, so a step allocates only when its batch outgrows
// every earlier one.
func Resize[T Float](m *Dense[T], rows, cols int) *Dense[T] {
	if m == nil || cap(m.Data) < rows*cols {
		return NewDense[T](rows, cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	clear(m.Data)
	return m
}

// NewMatrix allocates a zeroed rows×cols float64 matrix.
func NewMatrix(rows, cols int) *Matrix { return NewDense[float64](rows, cols) }

// NewMatrix32 allocates a zeroed rows×cols float32 matrix.
func NewMatrix32(rows, cols int) *Matrix32 { return NewDense[float32](rows, cols) }

// FromSlice wraps an existing slice as a rows×cols matrix without copying.
// The slice length must be exactly rows*cols.
func FromSlice[T Float](rows, cols int, data []T) *Dense[T] {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice length %d != %d*%d", len(data), rows, cols))
	}
	return &Dense[T]{Rows: rows, Cols: cols, Data: data}
}

// CastInto copies src into dst element-by-element, converting precision.
// Shapes must match exactly. It is the bridge between the float64 learning
// state and the float32 compute path (weights down-cast after each trace
// update, activations up-cast before they feed a float64 readout).
//
// bi restricts the copy to the active blocks of a receptive field
// (DESIGN.md §15); nil copies every element. The cast is element-wise, so
// with silent blocks already +0 in both matrices every index gives the same
// bits.
func CastInto[D, S Float](dst *Dense[D], src *Dense[S], bi *BlockIndex) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CastInto shape mismatch %dx%d <- %dx%d",
			dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	checkBlockIndex(bi, src)
	if bi == nil {
		CastSlice(dst.Data, src.Data)
		return
	}
	for r := 0; r < src.Rows; r++ {
		drow, srow := dst.Row(r), src.Row(r)
		for _, h := range bi.Active(r / bi.Mi) {
			o := int(h) * bi.M
			CastSlice(drow[o:o+bi.M], srow[o:o+bi.M])
		}
	}
}

// Cast returns a newly allocated precision-converted copy of src.
func Cast[D, S Float](src *Dense[S]) *Dense[D] {
	out := NewDense[D](src.Rows, src.Cols)
	CastSlice(out.Data, src.Data)
	return out
}

// CastSlice converts src into dst element-wise; lengths must match.
func CastSlice[D, S Float](dst []D, src []S) {
	if len(dst) != len(src) {
		panic("tensor: CastSlice length mismatch")
	}
	for i, v := range src {
		dst[i] = D(v)
	}
}

// At returns the element at row r, column c.
func (m *Dense[T]) At(r, c int) T { return m.Data[r*m.Cols+c] }

// Set assigns the element at row r, column c.
func (m *Dense[T]) Set(r, c int, v T) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a subslice (no copy).
func (m *Dense[T]) Row(r int) []T { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of the matrix.
func (m *Dense[T]) Clone() *Dense[T] {
	out := NewDense[T](m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom copies src into m. Dimensions must match exactly.
func (m *Dense[T]) CopyFrom(src *Dense[T]) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d <- %dx%d",
			m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets every element to 0.
func (m *Dense[T]) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Dense[T]) Fill(v T) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Transpose returns a newly allocated transpose of m.
func (m *Dense[T]) Transpose() *Dense[T] {
	out := NewDense[T](m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for c, v := range row {
			out.Data[c*out.Cols+r] = v
		}
	}
	return out
}

// Equal reports whether m and other have identical shape and elements within
// absolute tolerance tol.
func (m *Dense[T]) Equal(other *Dense[T], tol float64) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(float64(v)-float64(other.Data[i])) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference between two
// matrices of identical shape. It is the metric used by kernel cross-checks.
func (m *Dense[T]) MaxAbsDiff(other *Dense[T]) float64 {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	max := 0.0
	for i, v := range m.Data {
		d := math.Abs(float64(v) - float64(other.Data[i]))
		if d > max {
			max = d
		}
	}
	return max
}

// String renders small matrices for debugging; large matrices are summarized.
func (m *Dense[T]) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		if r > 0 {
			s += "; "
		}
		for c := 0; c < m.Cols; c++ {
			if c > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", float64(m.At(r, c)))
		}
	}
	return s + "]"
}
