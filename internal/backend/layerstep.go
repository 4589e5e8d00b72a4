package backend

import "streambrain/internal/tensor"

// This file defines the whole-layer offload capability (DESIGN.md §14) — the
// Go analogue of StreamBrain's `full_cuda` backend, which ships entire layer
// updates to the device instead of issuing the six-plus kernel calls the
// composed training step needs. A backend that can run the complete
// support→softmax→trace→homeostasis→weight-update sequence as one pass
// advertises it by implementing LayerStepper; the trainer type-asserts and
// dispatches, and falls back to the composed kernel sequence otherwise. The
// composed sequence therefore stays the contract: LayerStep must compute the
// same function (see the fused≡composed property tests for the tolerance).

// LayerHyper carries the per-step schedule of a fused layer step: the scalar
// hyperparameters of the composed sequence, the two batch-varying vectors
// that the composed path threads through core instead of the kernel calls,
// and the block indexes the composed kernels take.
//
// Kbi is the homeostatic bias gain (length H·M). LayerStep applies the
// floored-bias homeostasis rule in-pass — Kbi is read AND rewritten — because
// the composed order (trace update → homeostasis → bias refresh) is only
// reproducible if the gain update happens between the Cj update and the bias
// recompute.
//
// Noise, when non-nil, is the pre-generated support noise of this batch
// (row-major batch×H·M, added to the support after the bias and before the
// softmax). The composed path draws it inline from the layer RNG; a fused
// step cannot, because worker sharding would make draw order — and therefore
// training — nondeterministic. The caller draws in row-major order and the
// step adds, which reproduces the composed values exactly. Nil means no
// support noise (prediction-noise-free batches, the steady state).
type LayerHyper[T tensor.Float] struct {
	Taupdt       float64 // trace EMA rate
	Taubdt       float64 // homeostatic gain relaxation rate
	PMinFraction float64 // starvation threshold numerator (pmin = PMinFraction/M)
	Temperature  float64 // softmax temperature
	Eps          float64 // probability floor for the log-odds parameters
	Kbi          []T     // homeostatic gain, updated in-pass
	Noise        []T     // optional pre-drawn support noise, batch×(H·M) row-major

	// Blocks is the layer's receptive field and geometry (DESIGN.md §15):
	// Fi input hypercolumns of Mi units feed H hidden HCUs of M MCUs. The
	// gather and the weight re-derivation walk only its active blocks;
	// silent weight blocks are never written, and the caller keeps them at
	// exact zeros (tensor.ZeroSilent on every index rebuild). Required.
	Blocks *tensor.BlockIndex
	// Trace is the index the joint-trace update walks, exactly as in
	// Kernels.OneHotOuterLerp: nil decays every block (the dense regime),
	// Blocks freezes the silent ones (the sparse regime). It is the only
	// difference between the two regimes.
	Trace *tensor.BlockIndex
}

// LayerStepper is the optional whole-layer offload capability. LayerStep
// performs one complete unsupervised BCPNN batch step:
//
//	act  = softmax_groups(onehot(idx)·w + bias [+ noise])   (forward)
//	ci   = lerp(ci,  mean_s onehot(idx))                    (input trace)
//	cj   = lerp(cj,  colmeans(act))                         (unit trace)
//	cij  = lerp(cij, mean_s onehot(idx) ⊗ act)              (joint trace)
//	kbi  = homeostasis(kbi, cj)                             (gain update)
//	w    = log-odds(ci, cj, cij) over active blocks         (in-pass refresh)
//	bias = kbi · log(max(cj, eps))                          (in-pass refresh)
//
// equivalent to the composed kernel sequence but in as few passes as the
// implementation can manage: the fused CPU backend walks Cij and W once in
// cache-sized row blocks, the offload simulators charge one kernel launch for
// the whole step. act is an output (the trainer's scratch activation buffer,
// batch×H·M); all other buffers are read-write model state.
//
// Implementations may keep internal scratch — LayerStep, like every Kernels
// method, is never called concurrently on one backend value.
type LayerStepper[T tensor.Float] interface {
	LayerStep(idx [][]int32, act *tensor.Dense[T], ci, cj []T, cij, w *tensor.Dense[T],
		bias []T, hyper LayerHyper[T])
}
