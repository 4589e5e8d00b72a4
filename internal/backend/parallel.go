package backend

import (
	"runtime"
	"sync"

	"streambrain/internal/tensor"
)

func init() {
	Register("parallel", func(workers int) Backend { return NewParallel(workers) })
	Register32("parallel", func(workers int) Backend32 { return NewParallelOf[float32](workers) })
}

// Parallel is the goroutine worker-team backend — the Go analogue of
// StreamBrain's OpenMP+SIMD CPU backend. Kernels are cache-blocked and
// sharded across a fixed worker count; inner loops are unit-stride and
// dispatch to the AVX2+FMA microkernels where available, so the float32
// instantiation processes twice the lanes per instruction.
type Parallel[T tensor.Float] struct {
	workers int
	// row is UpdateWeights' per-row routine: logOdds here, the bit-identical
	// four-lane weightRowFromTrace on the embedding Fused.
	row weightRowFunc[T]
	// Scratch, grown on first use (calls are never concurrent on one
	// backend value); the embedding Fused shares logcj.
	logcj []T              // log(max(cj,eps)) shared by every weight row (units)
	mean  []T              // LayerStep's batch-mean activation (units)
	outer *tensor.Dense[T] // OuterLerp's aᵀb
}

// NewParallel returns the float64 Parallel backend with the given team size.
// workers <= 0 selects GOMAXPROCS.
func NewParallel(workers int) *Parallel[float64] { return NewParallelOf[float64](workers) }

// NewParallelOf returns a Parallel backend of the given precision.
func NewParallelOf[T tensor.Float](workers int) *Parallel[T] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Parallel[T]{workers: workers, row: logOdds[T]}
}

// Name implements Kernels.
func (p *Parallel[T]) Name() string { return "parallel" }

// Workers implements Kernels.
func (p *Parallel[T]) Workers() int { return p.workers }

// serial reports whether a kernel over n rows runs on the calling goroutine.
// Such a kernel applies its range helper over [0, n) directly instead of
// calling parallelFor: the closure parallelFor takes captures the operands
// and escapes to the heap, even when one worker would run it inline. The
// helper and the range are the same either way, so the bits are too.
func (p *Parallel[T]) serial(n int) bool { return p.workers <= 1 || n <= 1 }

// parallelFor runs fn over [0,n) split into contiguous chunks, one per worker.
func (p *Parallel[T]) parallelFor(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MatMul implements Kernels.
func (p *Parallel[T]) MatMul(dst, a, b *tensor.Dense[T]) {
	tensor.MatMulParallel(dst, a, b, tensor.DefaultBlock, p.workers)
}

// OneHotMatMul implements Kernels.
func (p *Parallel[T]) OneHotMatMul(dst *tensor.Dense[T], idx [][]int32, w *tensor.Dense[T],
	bi *tensor.BlockIndex) {
	tensor.OneHotMatMulParallel(dst, idx, w, bi, p.workers)
}

// AddBias implements Kernels.
func (p *Parallel[T]) AddBias(m *tensor.Dense[T], bias []T) {
	if p.serial(m.Rows) {
		addBiasRange(m, bias, 0, m.Rows)
		return
	}
	p.parallelFor(m.Rows, func(lo, hi int) { addBiasRange(m, bias, lo, hi) })
}

// SoftmaxGroups implements Kernels.
func (p *Parallel[T]) SoftmaxGroups(m *tensor.Dense[T], groups, width int, temperature float64) {
	tensor.SoftmaxGroupsParallel(m, groups, width, temperature, p.workers)
}

// Lerp implements Kernels.
func (p *Parallel[T]) Lerp(dst, src []T, t float64) {
	tensor.LerpParallel(dst, src, T(t), p.workers)
}

// OneHotMeanLerp implements Kernels. The Ci trace is short (total input
// units); sharding it would cost more than it saves, so it stays serial.
func (p *Parallel[T]) OneHotMeanLerp(ci []T, idx [][]int32, t float64) {
	oneHotMeanLerp(ci, idx, t)
}

// OneHotOuterLerp implements Kernels. The Cij trace is the largest state in
// the model (inputs × hidden units); it is sharded by trace row band so each
// worker owns a disjoint slice and no locking is needed. Bands are
// row-aligned, so every worker applies the shared range helper to whole rows
// and the result is bit-identical at any worker count.
func (p *Parallel[T]) OneHotOuterLerp(cij *tensor.Dense[T], idx [][]int32, act *tensor.Dense[T],
	t float64, bi *tensor.BlockIndex) {
	if len(idx) == 0 {
		return
	}
	if p.serial(cij.Rows) {
		oneHotOuterLerpRange(cij, idx, act, t, bi, 0, cij.Rows)
		return
	}
	p.parallelFor(cij.Rows, func(lo, hi int) {
		oneHotOuterLerpRange(cij, idx, act, t, bi, lo, hi)
	})
}

// OuterLerp implements Kernels.
func (p *Parallel[T]) OuterLerp(cij *tensor.Dense[T], a, b *tensor.Dense[T], t float64) {
	p.outer = outerLerp(cij, a, b, t, p.outer, func(dst, x, y *tensor.Dense[T]) {
		tensor.MatMulATBParallel(dst, x, y, p.workers)
	})
}

// UpdateWeights implements Kernels.
func (p *Parallel[T]) UpdateWeights(w *tensor.Dense[T], ci, cj []T, cij *tensor.Dense[T],
	bi *tensor.BlockIndex, eps float64) {
	p.logcj = growScratch(p.logcj, len(cj))
	logMaxCols(p.logcj, cj, eps)
	logcj, row := p.logcj, p.row
	if p.serial(w.Rows) {
		updateWeightsRange(w, ci, logcj, cij, bi, eps, row, 0, w.Rows)
		return
	}
	p.parallelFor(w.Rows, func(lo, hi int) {
		updateWeightsRange(w, ci, logcj, cij, bi, eps, row, lo, hi)
	})
}

// UpdateBias implements Kernels.
func (p *Parallel[T]) UpdateBias(bias, kbi, cj []T, eps float64) {
	updateBias(bias, kbi, cj, eps)
}

// LayerStep implements Kernels as the composed kernel sequence.
func (p *Parallel[T]) LayerStep(idx [][]int32, act *tensor.Dense[T], ci, cj []T,
	cij, w *tensor.Dense[T], bias []T, hyper LayerHyper[T]) {
	p.mean = growScratch(p.mean, len(cj))
	ComposedStep[T](p, idx, act, ci, cj, cij, w, bias, hyper, p.mean)
}
