package tensor

import (
	"math"
	"sync"
)

// Axpy computes y += alpha*x element-wise. Slices must have equal length.
func Axpy[T Float](alpha T, x, y []T) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	axpyDispatch(alpha, x, y)
}

// Dot returns the inner product of x and y.
func Dot[T Float](x, y []T) T {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	var s0, s1, s2, s3 T
	i := 0
	for ; i+3 < len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	s := s0 + s1 + s2 + s3
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// Scale multiplies every element of x by alpha in place.
func Scale[T Float](alpha T, x []T) {
	scaleDispatch(alpha, x)
}

// Add computes dst += src element-wise — the alpha=1 Axpy, exposed for the
// fused layer-step backend's single-pass row accumulation.
func Add[T Float](dst, src []T) {
	if len(dst) != len(src) {
		panic("tensor: Add length mismatch")
	}
	addDispatch(dst, src)
}

// Sum returns the sum of the elements of x.
func Sum[T Float](x []T) T {
	var s T
	for _, v := range x {
		s += v
	}
	return s
}

// Lerp computes dst = (1-t)*dst + t*src element-wise — the exponential moving
// average that underlies every BCPNN trace update.
func Lerp[T Float](dst, src []T, t T) {
	if len(dst) != len(src) {
		panic("tensor: Lerp length mismatch")
	}
	lerpDispatch(dst, src, 1-t, t)
}

// LerpParallel is Lerp split across `workers` goroutines; used by the
// parallel backend for the large Cij trace (inputs × units).
func LerpParallel[T Float](dst, src []T, t T, workers int) {
	if workers <= 1 || len(dst) < 1<<14 {
		Lerp(dst, src, t)
		return
	}
	if len(dst) != len(src) {
		panic("tensor: LerpParallel length mismatch")
	}
	var wg sync.WaitGroup
	n := len(dst)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			Lerp(dst[lo:hi], src[lo:hi], t)
		}(lo, hi)
	}
	wg.Wait()
}

// SoftmaxRow computes, in place, the softmax of x with temperature T.
// It is max-subtracted for numerical stability; T <= 0 selects T = 1.
// The float32 instantiation exponentiates with the reduced-precision Exp32
// (see math32.go); accumulation stays exact enough because the max-subtracted
// exponentials are bounded by 1. A row whose entries are all -Inf comes back
// uniform. On AVX2+FMA machines the max, exp and scale passes run vectorized
// and return the scalar passes' results bit for bit (DESIGN.md §14).
func SoftmaxRow[T Float](x []T, temperature float64) {
	softmaxRow(x, temperature, simdEnabled)
}

// softmaxRow is SoftmaxRow with the vector kernels switched by vec; vec =
// false is the scalar reference the kernels are tested against.
func softmaxRow[T Float](x []T, temperature float64, vec bool) {
	if len(x) == 0 {
		return
	}
	if temperature <= 0 {
		temperature = 1
	}
	maxv := rowMax(x, vec)
	if math.IsInf(float64(maxv), -1) && allNegInf(x) {
		// (-Inf) - (-Inf) is NaN, so exponentiating would give a NaN row;
		// fall back to uniform so downstream traces stay probability masses.
		u := 1 / T(len(x))
		for i := range x {
			x[i] = u
		}
		return
	}
	var sum T
	if xs, ok := any(x).([]float32); ok {
		sum = T(expSum32(xs, float32(maxv), 1/float32(temperature), vec))
	} else {
		sum = T(expSum64(x, float64(maxv), temperature, vec))
	}
	Scale(1/sum, x)
}

func allNegInf[T Float](x []T) bool {
	for _, v := range x {
		if !math.IsInf(float64(v), -1) {
			return false
		}
	}
	return true
}

// SoftmaxGroups applies SoftmaxRow independently to each of `groups`
// consecutive segments of length `width` in every row of m. This is the
// per-hypercolumn softmax: each HCU's MCU activities form a probability mass.
func SoftmaxGroups[T Float](m *Dense[T], groups, width int, temperature float64) {
	if groups*width != m.Cols {
		panic("tensor: SoftmaxGroups groups*width != cols")
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for g := 0; g < groups; g++ {
			SoftmaxRow(row[g*width:(g+1)*width], temperature)
		}
	}
}

// SoftmaxGroupsParallel parallelizes SoftmaxGroups over rows.
func SoftmaxGroupsParallel[T Float](m *Dense[T], groups, width int, temperature float64, workers int) {
	if workers <= 1 || m.Rows < 4 {
		SoftmaxGroups(m, groups, width, temperature)
		return
	}
	if groups*width != m.Cols {
		panic("tensor: SoftmaxGroupsParallel groups*width != cols")
	}
	var wg sync.WaitGroup
	chunk := (m.Rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		r0 := w * chunk
		if r0 >= m.Rows {
			break
		}
		r1 := min(r0+chunk, m.Rows)
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			for r := r0; r < r1; r++ {
				row := m.Row(r)
				for g := 0; g < groups; g++ {
					SoftmaxRow(row[g*width:(g+1)*width], temperature)
				}
			}
		}(r0, r1)
	}
	wg.Wait()
}

// ColMeans computes the per-column mean of m into dst (length m.Cols).
// It is the batch expectation E[x] used by the trace updates.
func ColMeans[T Float](dst []T, m *Dense[T]) {
	if len(dst) != m.Cols {
		panic("tensor: ColMeans length mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for r := 0; r < m.Rows; r++ {
		addDispatch(dst, m.Row(r))
	}
	if m.Rows > 0 {
		Scale(1/T(m.Rows), dst)
	}
}

// ArgMaxRow returns the index of the maximum element of x (first on ties).
func ArgMaxRow[T Float](x []T) int {
	best := 0
	bv := math.Inf(-1)
	for i, v := range x {
		if float64(v) > bv {
			bv = float64(v)
			best = i
		}
	}
	return best
}

// Clip bounds every element of x into [lo, hi] in place.
func Clip[T Float](x []T, lo, hi T) {
	for i, v := range x {
		if v < lo {
			x[i] = lo
		} else if v > hi {
			x[i] = hi
		}
	}
}
