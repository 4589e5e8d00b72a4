package tensor

import "math"

// Generic→SIMD dispatch. Each wrapper runs the vector body over the largest
// lane-aligned prefix and finishes the tail in scalar Go; below simdMinLen
// the call overhead exceeds the win and the scalar loop runs directly.
//
// The any(...) type switches compile to shape tests on the instantiated
// slice type and do not allocate: the slice headers never escape.

// simdMinLen is the shortest slice worth a SIMD call. Classifier-sized rows
// (a handful of classes) stay scalar; hidden-layer rows (hundreds to
// thousands of units) vectorize.
const simdMinLen = 16

// axpy2 computes dst[j] += a0*b0[j] + a1*b1[j] — the fused two-row GEMM
// inner kernel. b0 and b1 must be at least len(dst) long.
func axpy2[T Float](a0, a1 T, b0, b1, dst []T) {
	n := len(dst)
	if simdEnabled && n >= simdMinLen {
		switch d := any(dst).(type) {
		case []float32:
			m := n &^ 7
			axpy2F32AVX(float32(a0), float32(a1), any(b0).([]float32), any(b1).([]float32), d[:m])
			for j := m; j < n; j++ {
				dst[j] += a0*b0[j] + a1*b1[j]
			}
			return
		case []float64:
			m := n &^ 3
			axpy2F64AVX(float64(a0), float64(a1), any(b0).([]float64), any(b1).([]float64), d[:m])
			for j := m; j < n; j++ {
				dst[j] += a0*b0[j] + a1*b1[j]
			}
			return
		}
	}
	for j := range dst {
		dst[j] += a0*b0[j] + a1*b1[j]
	}
}

// axpyDispatch computes y[j] += a*x[j] with the SIMD kernel when profitable.
func axpyDispatch[T Float](a T, x, y []T) {
	n := len(y)
	if simdEnabled && n >= simdMinLen {
		switch d := any(y).(type) {
		case []float32:
			m := n &^ 7
			axpyF32AVX(float32(a), any(x).([]float32), d[:m])
			for j := m; j < n; j++ {
				y[j] += a * x[j]
			}
			return
		case []float64:
			m := n &^ 3
			axpyF64AVX(float64(a), any(x).([]float64), d[:m])
			for j := m; j < n; j++ {
				y[j] += a * x[j]
			}
			return
		}
	}
	axpyScalar(a, x, y)
}

func axpyScalar[T Float](a T, x, y []T) {
	i := 0
	for ; i+3 < len(x); i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += a * x[i]
	}
}

// lerpDispatch computes dst[j] = omt*dst[j] + t*src[j].
func lerpDispatch[T Float](dst, src []T, omt, t T) {
	n := len(dst)
	if simdEnabled && n >= simdMinLen {
		switch d := any(dst).(type) {
		case []float32:
			m := n &^ 7
			lerpF32AVX(d[:m], any(src).([]float32), float32(omt), float32(t))
			for j := m; j < n; j++ {
				dst[j] = omt*dst[j] + t*src[j]
			}
			return
		case []float64:
			m := n &^ 3
			lerpF64AVX(d[:m], any(src).([]float64), float64(omt), float64(t))
			for j := m; j < n; j++ {
				dst[j] = omt*dst[j] + t*src[j]
			}
			return
		}
	}
	lerpScalar(dst, src, omt, t)
}

func lerpScalar[T Float](dst, src []T, omt, t T) {
	i := 0
	for ; i+3 < len(dst); i += 4 {
		dst[i] = omt*dst[i] + t*src[i]
		dst[i+1] = omt*dst[i+1] + t*src[i+1]
		dst[i+2] = omt*dst[i+2] + t*src[i+2]
		dst[i+3] = omt*dst[i+3] + t*src[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] = omt*dst[i] + t*src[i]
	}
}

// scaleDispatch computes x[j] *= a.
func scaleDispatch[T Float](a T, x []T) {
	n := len(x)
	if simdEnabled && n >= simdMinLen {
		switch d := any(x).(type) {
		case []float32:
			m := n &^ 7
			scaleF32AVX(float32(a), d[:m])
			for j := m; j < n; j++ {
				x[j] *= a
			}
			return
		case []float64:
			m := n &^ 3
			scaleF64AVX(float64(a), d[:m])
			for j := m; j < n; j++ {
				x[j] *= a
			}
			return
		}
	}
	for i := range x {
		x[i] *= a
	}
}

// addDispatch computes dst[j] += src[j] — the weight-row gather of the
// one-hot forward pass.
func addDispatch[T Float](dst, src []T) {
	n := len(dst)
	if simdEnabled && n >= simdMinLen {
		switch d := any(dst).(type) {
		case []float32:
			m := n &^ 7
			addF32AVX(d[:m], any(src).([]float32))
			for j := m; j < n; j++ {
				dst[j] += src[j]
			}
			return
		case []float64:
			m := n &^ 3
			addF64AVX(d[:m], any(src).([]float64))
			for j := m; j < n; j++ {
				dst[j] += src[j]
			}
			return
		}
	}
	i := 0
	for ; i+3 < n; i += 4 {
		dst[i] += src[i]
		dst[i+1] += src[i+1]
		dst[i+2] += src[i+2]
		dst[i+3] += src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += src[i]
	}
}

// SIMDEnabled reports whether the vectorized microkernels are active on this
// machine — surfaced so benchmarks and the perf runner can record it.
func SIMDEnabled() bool { return simdEnabled }

// rowMax returns what the loop `m := x[0]; for v in x[1:] { if v > m { m = v } }`
// returns. With vec set, the SIMD kernel scans the lane-aligned prefix; its
// result is only used where it provably equals the loop's: no NaN in the
// prefix (the loop skips a NaN unless it is x[0]) and a nonzero maximum
// (VMAXPD may pick the other-signed zero). Every other row takes the loop.
func rowMax[T Float](x []T, vec bool) T {
	if vec && len(x) >= simdMinLen {
		var m T
		var nan bool
		var n int
		switch d := any(x).(type) {
		case []float32:
			m32, nan32 := maxF32AVX(d)
			m, nan, n = T(m32), nan32, len(d)&^7
		case []float64:
			m64, nan64 := maxF64AVX(d)
			m, nan, n = T(m64), nan64, len(d)&^3
		default: // a named float type: take the loop
			nan = true
		}
		if !nan && m != 0 {
			for _, v := range x[n:] {
				if v > m {
					m = v
				}
			}
			return m
		}
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// expSum64 sets x[i] = math.Exp((x[i]-maxv)/t) and returns the sum of the
// results, added in index order. With vec set (and expF64Enabled),
// expSumF64AVX runs until it meets a block of four with a lane outside its
// range; that block is finished here with math.Exp, and the kernel resumes
// after it.
func expSum64[T Float](x []T, maxv, t float64, vec bool) float64 {
	x64, ok := any(x).([]float64)
	vec = vec && ok && expF64Enabled
	var s float64
	for i := 0; i < len(x); {
		if vec && len(x)-i >= 4 {
			var n int
			n, s = expSumF64AVX(x64[i:], maxv, t, s)
			i += n
		}
		for end := min(i+4, len(x)); i < end; i++ {
			e := math.Exp((float64(x[i]) - maxv) / t)
			x[i] = T(e)
			s += e
		}
	}
	return s
}

// expSum32 is expSum64's float32 twin: x[i] = Exp32((x[i]-maxv)*invT) in
// blocks of eight.
func expSum32(x []float32, maxv, invT float32, vec bool) float32 {
	var s float32
	for i := 0; i < len(x); {
		if vec && len(x)-i >= 8 {
			var n int
			n, s = expSumF32AVX(x[i:], maxv, invT, s)
			i += n
		}
		for end := min(i+8, len(x)); i < end; i++ {
			e := Exp32((x[i] - maxv) * invT)
			x[i] = e
			s += e
		}
	}
	return s
}
