//go:build !amd64 || purego

package tensor

// simdEnabled is a compile-time false off amd64 (or under the purego tag),
// so the dispatch branches in simd.go fold away and the stub kernels below
// are provably unreachable.
const (
	simdEnabled   = false
	expF64Enabled = false
)

func axpy2F32AVX(a0, a1 float32, b0, b1, dst []float32) { panic("tensor: no SIMD") }
func axpy2F64AVX(a0, a1 float64, b0, b1, dst []float64) { panic("tensor: no SIMD") }
func axpyF32AVX(a float32, x, y []float32)              { panic("tensor: no SIMD") }
func axpyF64AVX(a float64, x, y []float64)              { panic("tensor: no SIMD") }
func lerpF32AVX(dst, src []float32, omt, t float32)     { panic("tensor: no SIMD") }
func lerpF64AVX(dst, src []float64, omt, t float64)     { panic("tensor: no SIMD") }
func scaleF32AVX(a float32, x []float32)                { panic("tensor: no SIMD") }
func scaleF64AVX(a float64, x []float64)                { panic("tensor: no SIMD") }
func addF32AVX(dst, src []float32)                      { panic("tensor: no SIMD") }
func addF64AVX(dst, src []float64)                      { panic("tensor: no SIMD") }

func expSumF64AVX(x []float64, maxv, t, s float64) (int, float64)    { panic("tensor: no SIMD") }
func expSumF32AVX(x []float32, maxv, invT, s float32) (int, float32) { panic("tensor: no SIMD") }
func maxF64AVX(x []float64) (float64, bool)                          { panic("tensor: no SIMD") }
func maxF32AVX(x []float32) (float32, bool)                          { panic("tensor: no SIMD") }

func addNormalF64AVX(x []float64, std float64, lanes *noiseLanes, tab *zigTables, fails []noiseGroup) (int, int) {
	panic("tensor: no SIMD")
}
