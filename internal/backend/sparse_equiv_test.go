package backend_test

import (
	"fmt"
	"testing"

	"streambrain/internal/backend"
	"streambrain/internal/backend/backendtest"
	"streambrain/internal/tensor"
)

// sparseCandidates64 is the float64 kernel-set matrix the equivalence
// harness exercises: serial and parallel worker teams, the fused backend
// through both ComposedStep over its kernels and its own LayerStep, and the
// GPU simulator (whose compute is the fused kernels plus the transfer
// ledger) the same two ways.
func sparseCandidates64() []backendtest.Candidate[float64] {
	var cs []backendtest.Candidate[float64]
	for _, w := range []int{1, 4} {
		cs = append(cs,
			backendtest.Candidate[float64]{
				Name: fmt.Sprintf("parallel-%d", w), Kernels: backend.MustNew("parallel", w)},
			backendtest.Candidate[float64]{
				Name: fmt.Sprintf("fused-%d", w), Kernels: backend.MustNew("fused", w)},
			backendtest.Candidate[float64]{
				Name: fmt.Sprintf("fused-%d-step", w), Kernels: backend.MustNew("fused", w), Step: true},
		)
	}
	return append(cs,
		backendtest.Candidate[float64]{Name: "gpusim-4", Kernels: backend.MustNew("gpusim", 4)},
		backendtest.Candidate[float64]{Name: "gpusim-4-step", Kernels: backend.MustNew("gpusim", 4), Step: true})
}

func sparseCandidates32() []backendtest.Candidate[float32] {
	var cs []backendtest.Candidate[float32]
	for _, w := range []int{1, 4} {
		cs = append(cs,
			backendtest.Candidate[float32]{
				Name: fmt.Sprintf("parallel-%d", w), Kernels: backend.MustNew32("parallel", w)},
			backendtest.Candidate[float32]{
				Name: fmt.Sprintf("fused-%d", w), Kernels: backend.MustNew32("fused", w)},
			backendtest.Candidate[float32]{
				Name: fmt.Sprintf("fused-%d-step", w), Kernels: backend.MustNew32("fused", w), Step: true},
		)
	}
	return cs
}

// TestSparseEquivalenceF64 is the block-sparse ≡ dense-masked property test
// at float64: multi-step seeded training simulations with mid-run mask
// swaps, across single- and multi-hypercolumn geometries. Cross-backend
// sparse results must be bit-exact everywhere (shared segment helpers);
// sparse vs dense-masked is bit-exact whenever the block segments take the
// same microkernel path as the dense row walk — M ≥ 16 (the SIMD dispatch
// threshold) with M ≡ 0 mod 4, or H = 1 where a dense row is one block, the
// regimes every real model is in (MCUs default to 100–300). A deliberate
// sub-threshold M drops block segments onto the scalar (double-rounded)
// microkernel while the dense row stays on FMA, and is bounded at ~1 ulp.
func TestSparseEquivalenceF64(t *testing.T) {
	cases := []struct {
		name string
		cfg  backendtest.Config
	}{
		{"lane-aligned", backendtest.Config{
			Geom: backendtest.Geometry{Fi: 6, Mi: 4, H: 3, M: 16},
			K:    3, Batch: 7, Steps: 6, SwapEvery: 2, Seed: 11,
			DenseTol: 0, CrossTol: 0}},
		{"multi-hcu", backendtest.Config{
			Geom: backendtest.Geometry{Fi: 10, Mi: 5, H: 4, M: 24},
			K:    4, Batch: 5, Steps: 5, SwapEvery: 3, Seed: 7,
			DenseTol: 0, CrossTol: 0}},
		{"single-hcu", backendtest.Config{
			Geom: backendtest.Geometry{Fi: 8, Mi: 3, H: 1, M: 10},
			K:    4, Batch: 6, Steps: 6, SwapEvery: 2, Seed: 5,
			DenseTol: 0, CrossTol: 0}},
		{"sub-threshold-m", backendtest.Config{
			Geom: backendtest.Geometry{Fi: 6, Mi: 4, H: 4, M: 5},
			K:    3, Batch: 7, Steps: 6, SwapEvery: 2, Seed: 3,
			DenseTol: 1e-12, CrossTol: 0}},
		{"odd-m-tails", backendtest.Config{ // M = 37: block tails on the scalar kernel
			Geom: backendtest.Geometry{Fi: 6, Mi: 4, H: 3, M: 37},
			K:    3, Batch: 7, Steps: 6, SwapEvery: 2, Seed: 13,
			DenseTol: 1e-12, CrossTol: 0}},
		{"dense-mask", backendtest.Config{ // K = Fi: every block active
			Geom: backendtest.Geometry{Fi: 5, Mi: 4, H: 2, M: 16},
			K:    5, Batch: 4, Steps: 4, SwapEvery: 0, Seed: 9,
			DenseTol: 0, CrossTol: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			backendtest.Run(t, tc.cfg, backend.MustNew("naive", 0), sparseCandidates64())
		})
	}
}

// TestSparseEquivalenceF32 is the float32 instantiation: the ISSUE contract
// is |Δ| ≤ 1e-5 against both the dense-masked reference and across kernel
// sets (the fused step runs its in-pass homeostasis at float32, which the
// float64-formulated reference only approximates).
func TestSparseEquivalenceF32(t *testing.T) {
	cases := []struct {
		name string
		cfg  backendtest.Config
	}{
		{"lane-aligned", backendtest.Config{
			Geom: backendtest.Geometry{Fi: 6, Mi: 4, H: 3, M: 8},
			K:    3, Batch: 7, Steps: 6, SwapEvery: 2, Seed: 11,
			DenseTol: 1e-5, CrossTol: 1e-5}},
		{"multi-hcu-odd-m", backendtest.Config{
			Geom: backendtest.Geometry{Fi: 10, Mi: 5, H: 4, M: 7},
			K:    4, Batch: 5, Steps: 5, SwapEvery: 3, Seed: 7,
			DenseTol: 1e-5, CrossTol: 1e-5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			backendtest.Run(t, tc.cfg, backend.MustNew32("naive", 0), sparseCandidates32())
		})
	}
}

// TestSparseKernelGeometryChecks: malformed operand shapes must panic, not
// read out of bounds.
func TestSparseKernelGeometryChecks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on sparse operand shape mismatch")
		}
	}()
	be := backend.MustNew("naive", 0)
	mask := make([]bool, 4*2)
	for i := range mask {
		mask[i] = true
	}
	bi := tensor.NewBlockIndex(mask, 4, 2, 2, 3) // tiles 8×6
	w := tensor.NewDense[float64](8, 6)
	dst := tensor.NewDense[float64](2, 10) // wrong width for the index
	be.OneHotMatMul(dst, [][]int32{{0}, {2}}, w, bi)
}
