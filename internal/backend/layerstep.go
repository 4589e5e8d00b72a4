package backend

import "streambrain/internal/tensor"

// This file defines the one training step every backend runs as
// Kernels.LayerStep (DESIGN.md §14) — the analogue of StreamBrain's
// `full_cuda` whole-layer call.

// LayerHyper carries the per-step schedule of a layer step: the scalar
// hyperparameters, the two batch-varying vectors the step reads or rewrites,
// and the block indexes the kernels take.
//
// Kbi is the homeostatic bias gain (length H·M). LayerStep applies the
// floored-bias homeostasis rule in-pass — Kbi is read AND rewritten —
// between the Cj update and the bias recompute.
//
// NoiseStd > 0 adds Gaussian support noise after the bias and before the
// softmax: row s of the batch gets NoiseStd times the keyed stream
// tensor.AddNormal draws for (NoiseKey, s). The values depend on the key, the
// row and the unit only, so every backend, worker band and build adds the
// same noise, and no step holds a batch-sized noise buffer. The caller draws
// a fresh key per noisy step. NoiseStd <= 0 means no support noise
// (prediction-noise-free batches, the steady state).
type LayerHyper[T tensor.Float] struct {
	Taupdt       float64 // trace EMA rate
	Taubdt       float64 // homeostatic gain relaxation rate
	PMinFraction float64 // starvation threshold numerator (pmin = PMinFraction/M)
	Temperature  float64 // softmax temperature
	Eps          float64 // probability floor for the log-odds parameters
	Kbi          []T     // homeostatic gain, updated in-pass
	NoiseStd     float64 // support-noise standard deviation; <= 0 is none
	NoiseKey     uint64  // key of this step's support-noise stream

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

// ComposedStep runs one unsupervised BCPNN batch step as the kernel
// sequence of k — naive's and parallel's LayerStep, and the reference every
// fused step must reproduce (bit for bit at float64):
//
//	act  = softmax_groups(onehot(idx)·w + bias [+ noise])   (forward)
//	ci   = lerp(ci,  mean_s onehot(idx))                    (input trace)
//	cj   = lerp(cj,  colmeans(act))                         (unit trace)
//	cij  = lerp(cij, mean_s onehot(idx) ⊗ act)              (joint trace)
//	kbi  = homeostasis(kbi, cj)                             (gain update)
//	w    = log-odds(ci, cj, cij) over active blocks         (refresh)
//	bias = kbi · log(max(cj, eps))                          (refresh)
//
// mean is the caller's scratch for colmeans(act), one entry per hidden unit.
func ComposedStep[T tensor.Float](k Kernels[T], idx [][]int32, act *tensor.Dense[T], ci, cj []T,
	cij, w *tensor.Dense[T], bias []T, hyper LayerHyper[T], mean []T) {
	checkLayerStep(idx, act, ci, cj, cij, w, bias, hyper)
	if len(mean) != len(cj) {
		panic("backend: ComposedStep mean scratch length mismatch")
	}
	bi, t := hyper.Blocks, hyper.Taupdt
	k.OneHotMatMul(act, idx, w, bi)
	k.AddBias(act, bias)
	if hyper.NoiseStd > 0 {
		for s := range idx {
			tensor.AddNormal(act.Row(s), hyper.NoiseStd, hyper.NoiseKey, uint64(s))
		}
	}
	k.SoftmaxGroups(act, bi.H, bi.M, hyper.Temperature)
	k.OneHotMeanLerp(ci, idx, t)
	tensor.ColMeans(mean, act)
	k.Lerp(cj, mean, t)
	k.OneHotOuterLerp(cij, idx, act, t, hyper.Trace)
	Homeostasis(hyper.Kbi, cj, bi.M, hyper.Taubdt, hyper.PMinFraction, hyper.Eps)
	k.UpdateWeights(w, ci, cj, cij, bi, hyper.Eps)
	k.UpdateBias(bias, hyper.Kbi, cj, hyper.Eps)
}

// checkLayerStep validates every shape of a layer step against the geometry
// of hyper.Blocks, so the blocked passes can index without per-element
// checks.
func checkLayerStep[T tensor.Float](idx [][]int32, act *tensor.Dense[T], ci, cj []T,
	cij, w *tensor.Dense[T], bias []T, hyper LayerHyper[T]) {
	bi := hyper.Blocks
	if bi == nil {
		panic("backend: LayerStep needs hyper.Blocks")
	}
	in, units := bi.Fi*bi.Mi, bi.H*bi.M
	if act.Rows != len(idx) || act.Cols != units {
		panic("backend: LayerStep act shape mismatch")
	}
	if w.Rows != in || w.Cols != units || cij.Rows != in || cij.Cols != units {
		panic("backend: LayerStep W/Cij shape mismatch")
	}
	if len(ci) != in || len(cj) != units || len(bias) != units || len(hyper.Kbi) != units {
		panic("backend: LayerStep vector length mismatch")
	}
	if tr := hyper.Trace; tr != nil &&
		(tr.Fi != bi.Fi || tr.Mi != bi.Mi || tr.H != bi.H || tr.M != bi.M) {
		panic("backend: LayerStep trace-index geometry mismatch")
	}
}
