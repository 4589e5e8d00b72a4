// Package backend defines the compute-backend abstraction of StreamBrain-Go.
//
// StreamBrain (Podobas et al., HEART 2021) ships hand-coded backends for
// OpenMP+SIMD CPUs, CUDA GPUs, MPI clusters and HLS FPGAs behind one kernel
// interface. This package reproduces that architecture in Go: the BCPNN core
// is written against the Backend interface and never touches raw loops, so
// swapping the execution strategy is a one-line change exactly as in the
// Python original.
//
// Five backends are provided:
//
//   - "naive":    single-threaded reference kernels (the NumPy role).
//   - "parallel": goroutine worker-team kernels with cache blocking
//     (the OpenMP+SIMD role).
//   - "fused":    the parallel kernels plus a LayerStep that runs one
//     training step in three cache-blocked passes (DESIGN.md §14); the
//     library default.
//   - "gpusim":   a GPU-offload simulator that models device-resident
//     buffers and counts kernel launches and host/device transfer
//     bytes under both the fully-offloaded and the chatty transfer
//     policy (the CUDA role; see DESIGN.md §1 for the substitution).
//   - "fpgasim":  a streaming-pipeline cost model with posit-quantized
//     parameters (the HLS FPGA role; float64 only).
//
// The two simulators are one device-cost decorator over the fused backend
// (sim.go): each call's launch is described once and charged to the
// simulator's ledger before the fused kernels run it.
//
// The receptive field reaches every kernel in one form: a *tensor.BlockIndex,
// where nil means every block (DESIGN.md §15). There is one kernel per
// operation, not a dense and a sparse twin.
//
// Every kernel set is generic over the element precision (DESIGN.md §9):
// Backend is the float64 instantiation the trainer uses for traces and
// accumulators, Backend32 is the float32 instantiation behind the reduced-
// precision compute path. The two instantiations share one source — the
// float32 set is not a fork, it is the same kernels at half the element
// width (and, on amd64, twice the SIMD lanes).
package backend

import (
	"fmt"
	"sort"
	"sync"

	"streambrain/internal/tensor"
)

// Kernels is the kernel set the BCPNN training loop is expressed in,
// parameterized by element precision. All methods must be safe for
// sequential use; implementations may parallelize internally but calls
// themselves are not concurrent. Scalar hyperparameters (trace rates,
// temperatures, eps floors) stay float64 at the interface and are converted
// at the kernel boundary, so callers never depend on the precision.
type Kernels[T tensor.Float] interface {
	// Name returns the registry name of the backend.
	Name() string
	// Workers returns the size of the backend's worker team (1 for naive).
	Workers() int

	// MatMul computes dst = a·b.
	MatMul(dst, a, b *tensor.Dense[T])
	// OneHotMatMul computes dst = X·w where sample s of X is the indicator
	// vector of idx[s] (the quantile one-hot encoding of §V of the paper).
	// bi, when non-nil, restricts the gather to its active blocks; silent W
	// blocks hold exact zeros, so every index gives the same bits.
	OneHotMatMul(dst *tensor.Dense[T], idx [][]int32, w *tensor.Dense[T], bi *tensor.BlockIndex)
	// AddBias adds the bias vector to every row of m.
	AddBias(m *tensor.Dense[T], bias []T)
	// SoftmaxGroups applies a temperature softmax independently to each of
	// `groups` consecutive width-`width` segments of every row — the
	// per-hypercolumn normalization of MCU activities.
	SoftmaxGroups(m *tensor.Dense[T], groups, width int, temperature float64)

	// Lerp computes dst = (1-t)·dst + t·src — the exponential trace update.
	Lerp(dst, src []T, t float64)
	// OneHotMeanLerp folds the batch mean of one-hot inputs into the Ci
	// trace: ci = (1-t)·ci + (t/len(idx))·Σ_s indicator(idx[s]).
	OneHotMeanLerp(ci []T, idx [][]int32, t float64)
	// OneHotOuterLerp folds the batch outer-product mean into the joint
	// trace: cij = (1-t)·cij + (t/len(idx))·Σ_s indicator(idx[s]) ⊗ act[s].
	// nil bi decays and accumulates every block, a whole row at a time (the
	// dense regime); non-nil bi touches only its active blocks, one M-wide
	// segment at a time, and leaves silent blocks frozen (the sparse regime,
	// DESIGN.md §15). The segmentation is part of the result: it fixes which
	// lanes the FMA microkernel covers.
	OneHotOuterLerp(cij *tensor.Dense[T], idx [][]int32, act *tensor.Dense[T], t float64,
		bi *tensor.BlockIndex)
	// OuterLerp is the dense variant used by the supervised layer:
	// cij = (1-t)·cij + (t/a.Rows)·aᵀb.
	OuterLerp(cij *tensor.Dense[T], a, b *tensor.Dense[T], t float64)

	// UpdateWeights recomputes the BCPNN weight matrix from the traces:
	// w_ij = log(max(cij,eps²) / (max(ci_i,eps)·max(cj_j,eps))).
	// bi, when non-nil, restricts the refresh to its active blocks and
	// leaves silent blocks untouched — callers keep them at exact zeros
	// (tensor.ZeroSilent) whenever the index is rebuilt. The formula is
	// element-wise, so the active blocks get the same bits at every index.
	UpdateWeights(w *tensor.Dense[T], ci, cj []T, cij *tensor.Dense[T],
		bi *tensor.BlockIndex, eps float64)
	// UpdateBias recomputes bias_j = kbi_j · log(max(cj_j, eps)).
	UpdateBias(bias, kbi, cj []T, eps float64)

	// LayerStep performs one complete unsupervised BCPNN batch step — the
	// function ComposedStep spells out as kernel calls — in as few passes as
	// the backend can manage: naive and parallel run ComposedStep itself,
	// fused walks Cij and W once in cache-sized row blocks, and the
	// simulators charge one launch for the whole step. act is an output (the
	// trainer's activation buffer, batch×H·M, holding the forward pass of the
	// pre-step parameters); every other buffer is read-write model state.
	LayerStep(idx [][]int32, act *tensor.Dense[T], ci, cj []T, cij, w *tensor.Dense[T],
		bias []T, hyper LayerHyper[T])
}

// Backend is the float64 kernel set — the precision of every training trace.
type Backend = Kernels[float64]

// Backend32 is the float32 kernel set behind the reduced-precision compute
// path (forward passes and derived parameters; traces never live here).
type Backend32 = Kernels[float32]

// factory builds a backend with the requested worker count.
type factory func(workers int) Backend

// factory32 builds a float32 backend with the requested worker count.
type factory32 func(workers int) Backend32

var (
	regMu      sync.RWMutex
	registry   = map[string]factory{}
	registry32 = map[string]factory32{}
)

// Register installs a float64 backend factory under name. It is called from
// package init functions; duplicate names panic.
func Register(name string, f factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("backend: duplicate registration %q", name))
	}
	registry[name] = f
}

// Register32 installs a float32 backend factory under name. Backends without
// a float32 kernel set (fpgasim, whose numerics are posit-defined) simply do
// not register here, and New32 reports them as unavailable.
func Register32(name string, f factory32) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry32[name]; dup {
		panic(fmt.Sprintf("backend: duplicate float32 registration %q", name))
	}
	registry32[name] = f
}

// New returns the named float64 backend with the given worker-team size.
// workers <= 0 selects a backend-specific default.
func New(name string, workers int) (Backend, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("backend: unknown backend %q (have %v)", name, Names())
	}
	return f(workers), nil
}

// New32 returns the named backend's float32 kernel set.
func New32(name string, workers int) (Backend32, error) {
	regMu.RLock()
	f, ok := registry32[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("backend: backend %q has no float32 kernel set (have %v)",
			name, Names32())
	}
	return f(workers), nil
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(name string, workers int) Backend {
	b, err := New(name, workers)
	if err != nil {
		panic(err)
	}
	return b
}

// MustNew32 is New32 that panics on error, for tests and examples.
func MustNew32(name string, workers int) Backend32 {
	b, err := New32(name, workers)
	if err != nil {
		panic(err)
	}
	return b
}

// Names returns the sorted list of registered backend names.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Names32 returns the sorted list of backends with a float32 kernel set.
func Names32() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry32))
	for n := range registry32 {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
