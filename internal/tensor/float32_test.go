package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The float32 kernel set is validated against the float64 reference: the
// same inputs, cast down, must agree within float32 accumulation error.
// On amd64 this also exercises the AVX2+FMA microkernels end-to-end
// (including lane-tail handling at non-multiple-of-8 widths).

func randDense[T Float](rng *rand.Rand, rows, cols int) *Dense[T] {
	m := NewDense[T](rows, cols)
	for i := range m.Data {
		m.Data[i] = T(rng.Float64()*2 - 1)
	}
	return m
}

func TestMatMulFloat32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Odd sizes on purpose: every SIMD kernel must handle scalar tails.
	for _, sz := range [][3]int{{5, 7, 3}, {33, 41, 29}, {64, 64, 64}, {70, 130, 67}} {
		m, k, n := sz[0], sz[1], sz[2]
		a64 := randDense[float64](rng, m, k)
		b64 := randDense[float64](rng, k, n)
		want := NewMatrix(m, n)
		MatMulNaive(want, a64, b64)

		a32 := Cast[float32](a64)
		b32 := Cast[float32](b64)
		got32 := NewMatrix32(m, n)
		MatMulBlocked(got32, a32, b32, 16)
		got := Cast[float64](got32)
		// Accumulating k float32 products: error grows like k·eps32.
		tol := 1e-5 * float64(k)
		if d := want.MaxAbsDiff(got); d > tol {
			t.Fatalf("%dx%dx%d: f32 blocked GEMM diverges from f64 reference by %g (tol %g)", m, k, n, d, tol)
		}

		got32.Zero()
		MatMulParallel(got32, a32, b32, 16, 4)
		if d := want.MaxAbsDiff(Cast[float64](got32)); d > tol {
			t.Fatalf("%dx%dx%d: f32 parallel GEMM diverges by %g", m, k, n, d)
		}
	}
}

func TestVecOpsFloat32MatchFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{3, 15, 16, 100, 1021} {
		x64 := make([]float64, n)
		y64 := make([]float64, n)
		for i := range x64 {
			x64[i] = rng.Float64()*2 - 1
			y64[i] = rng.Float64()*2 - 1
		}
		x32 := make([]float32, n)
		y32 := make([]float32, n)
		CastSlice(x32, x64)
		CastSlice(y32, y64)

		Axpy(0.37, x64, y64)
		Axpy(float32(0.37), x32, y32)
		for i := range y64 {
			if math.Abs(float64(y32[i])-y64[i]) > 1e-5 {
				t.Fatalf("n=%d: Axpy f32 diverges at %d: %g vs %g", n, i, y32[i], y64[i])
			}
		}

		Lerp(y64, x64, 0.01)
		Lerp(y32, x32, float32(0.01))
		for i := range y64 {
			if math.Abs(float64(y32[i])-y64[i]) > 1e-5 {
				t.Fatalf("n=%d: Lerp f32 diverges at %d", n, i)
			}
		}

		Scale(1.7, y64)
		Scale(float32(1.7), y32)
		for i := range y64 {
			if math.Abs(float64(y32[i])-y64[i]) > 1e-5 {
				t.Fatalf("n=%d: Scale f32 diverges at %d", n, i)
			}
		}
	}
}

func TestSoftmaxGroupsFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m64 := randDense[float64](rng, 6, 30)
	m32 := Cast[float32](m64)
	SoftmaxGroups(m64, 3, 10, 0.8)
	SoftmaxGroups(m32, 3, 10, 0.8)
	if d := m64.MaxAbsDiff(Cast[float64](m32)); d > 1e-5 {
		t.Fatalf("f32 softmax diverges from f64 by %g", d)
	}
	// Each group must remain a probability mass.
	for r := 0; r < m32.Rows; r++ {
		row := m32.Row(r)
		for g := 0; g < 3; g++ {
			s := Sum(row[g*10 : (g+1)*10])
			if math.Abs(float64(s)-1) > 1e-5 {
				t.Fatalf("group sum %g != 1", s)
			}
		}
	}
}

func TestOneHotMatMulFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	w64 := randDense[float64](rng, 40, 37) // odd width: exercises SIMD tails
	w32 := Cast[float32](w64)
	idx := make([][]int32, 9)
	for s := range idx {
		for g := 0; g < 4; g++ {
			idx[s] = append(idx[s], int32(g*10+rng.Intn(10)))
		}
	}
	d64 := NewMatrix(9, 37)
	d32 := NewMatrix32(9, 37)
	OneHotMatMul(d64, idx, w64, nil)
	OneHotMatMul(d32, idx, w32, nil)
	if d := d64.MaxAbsDiff(Cast[float64](d32)); d > 1e-5 {
		t.Fatalf("f32 one-hot matmul diverges by %g", d)
	}
	d32.Zero()
	OneHotMatMulParallel(d32, idx, w32, nil, 3)
	if d := d64.MaxAbsDiff(Cast[float64](d32)); d > 1e-5 {
		t.Fatalf("f32 parallel one-hot matmul diverges by %g", d)
	}
}

func TestCastRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randDense[float32](rng, 5, 9)
	up := Cast[float64](m)
	down := Cast[float32](up)
	if d := m.MaxAbsDiff(down); d != 0 {
		t.Fatalf("f32→f64→f32 round trip changed values by %g", d)
	}
	into := NewMatrix32(5, 9)
	CastInto(into, up, nil)
	if d := m.MaxAbsDiff(into); d != 0 {
		t.Fatalf("CastInto changed values by %g", d)
	}
}
