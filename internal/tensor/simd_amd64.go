//go:build amd64 && !purego

package tensor

import "math"

// simdEnabled reports whether the AVX2+FMA microkernels in simd_amd64.s may
// be used. Detection follows the Intel manual: the CPU must advertise AVX,
// AVX2 and FMA, and the OS must have enabled XMM/YMM state saving (OSXSAVE
// plus XCR0 bits 1-2), otherwise executing VEX instructions faults.
var simdEnabled = detectSIMD()

// expF64Enabled gates expSumF64AVX, which copies math.Exp's FMA path. math
// takes that path only when the runtime's own CPU check allows it, and
// GODEBUG=cpu.fma=off clears that check while simdEnabled stays true. So
// the kernel runs only if it reproduces math.Exp in this process; the two
// paths round differently on most of the probe arguments.
var expF64Enabled = simdEnabled && expKernelMatchesMath()

func expKernelMatchesMath() bool {
	var x, y [64]float64
	for i := range x {
		x[i] = -10.9*float64(i) - 0.37 // spans (-708, 0)
	}
	y = x
	expSumF64AVX(y[:], 0, 1, 0)
	for i, v := range x {
		if math.Float64bits(y[i]) != math.Float64bits(math.Exp(v)) {
			return false
		}
	}
	return true
}

func detectSIMD() bool {
	maxLeaf, _, _, _ := cpuidLow(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuidLow(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if c1&fmaBit == 0 || c1&osxsaveBit == 0 || c1&avxBit == 0 {
		return false
	}
	_, b7, _, _ := cpuidLow(7, 0)
	if b7&(1<<5) == 0 { // AVX2
		return false
	}
	xcr0, _ := xgetbv0()
	return xcr0&6 == 6 // XMM and YMM state enabled by the OS
}

// Assembly kernels (simd_amd64.s). Callers must pre-truncate dst to a
// multiple of the lane width; see the dispatch wrappers in simd.go.

func axpy2F32AVX(a0, a1 float32, b0, b1, dst []float32)
func axpy2F64AVX(a0, a1 float64, b0, b1, dst []float64)
func axpyF32AVX(a float32, x, y []float32)
func axpyF64AVX(a float64, x, y []float64)
func lerpF32AVX(dst, src []float32, omt, t float32)
func lerpF64AVX(dst, src []float64, omt, t float64)
func scaleF32AVX(a float32, x []float32)
func scaleF64AVX(a float64, x []float64)
func addF32AVX(dst, src []float32)
func addF64AVX(dst, src []float64)

// Softmax kernels over the lane-aligned prefix of x; see expSum64, expSum32
// and rowMax in simd.go for the contracts the wrappers rely on.

func expSumF64AVX(x []float64, maxv, t, s float64) (n int, sum float64)
func expSumF32AVX(x []float32, maxv, invT, s float32) (n int, sum float32)
func maxF64AVX(x []float64) (m float64, nan bool)
func maxF32AVX(x []float32) (m float32, nan bool)

// addNormalF64AVX is AddNormal's fast path; see addNormal in normal.go.
//
//go:noescape
func addNormalF64AVX(x []float64, std float64, lanes *noiseLanes, tab *zigTables,
	fails []noiseGroup) (n, nf int)

func cpuidLow(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)
