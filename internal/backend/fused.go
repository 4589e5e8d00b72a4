package backend

import (
	"streambrain/internal/tensor"
)

func init() {
	Register("fused", func(workers int) Backend { return NewFused(workers) })
	Register32("fused", func(workers int) Backend32 { return NewFusedOf[float32](workers) })
}

// Fused is the whole-layer offload backend (DESIGN.md §14) — the CPU analogue
// of StreamBrain's `full_cuda` backend. Its composed kernels are the Parallel
// worker-team kernels (embedded); what it adds is LayerStep, which runs the
// entire unsupervised batch update in three passes instead of nine kernel
// dispatches:
//
//  1. one pass over the activation matrix per worker band: support gather,
//     bias, optional noise, and the per-HCU softmax, row by row;
//  2. a short serial section over the small per-unit vectors: Ci/Cj traces,
//     homeostatic gain, bias refresh, and the shared log(Cj) table — the
//     composed weight kernel rebuilds that table on every call per worker;
//  3. one cache-blocked pass over Cij and W per worker band: each row block
//     is decayed, accumulated, and immediately re-derived into weights while
//     it is still cache-resident — the composed path walks both matrices
//     twice (trace kernel, then weight kernel) from DRAM.
//
// Every elementary operation reuses the composed microkernels in the same
// order per element, so at float64 LayerStep is bit-identical to the composed
// sequence (the property tests assert it); fusion changes when memory is
// touched, not what is computed.
type Fused[T tensor.Float] struct {
	*Parallel[T]

	// Reusable scratch, grown on first use: LayerStep is allocation-free at
	// steady state (calls are never concurrent on one backend value).
	meanAct []T // batch-mean activation (units)
	logcj   []T // log(max(cj,eps)) shared by every weight row (units)
}

// NewFused returns the float64 fused backend with the given worker-team
// size; workers <= 0 selects GOMAXPROCS.
func NewFused(workers int) *Fused[float64] { return NewFusedOf[float64](workers) }

// NewFusedOf returns a fused backend of the given precision.
func NewFusedOf[T tensor.Float](workers int) *Fused[T] {
	return &Fused[T]{Parallel: NewParallelOf[T](workers)}
}

// Name implements Kernels.
func (f *Fused[T]) Name() string { return "fused" }

// growScratch returns buf resized to n, reallocating only on growth.
func growScratch[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// checkLayerStep validates every shape of a fused step against the geometry
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
	if hyper.Noise != nil && len(hyper.Noise) != len(idx)*units {
		panic("backend: LayerStep noise length mismatch")
	}
	if tr := hyper.Trace; tr != nil &&
		(tr.Fi != bi.Fi || tr.Mi != bi.Mi || tr.H != bi.H || tr.M != bi.M) {
		panic("backend: LayerStep trace-index geometry mismatch")
	}
}

// LayerStep implements LayerStepper.
func (f *Fused[T]) LayerStep(idx [][]int32, act *tensor.Dense[T], ci, cj []T,
	cij, w *tensor.Dense[T], bias []T, hyper LayerHyper[T]) {
	checkLayerStep(idx, act, ci, cj, cij, w, bias, hyper)
	units := hyper.Blocks.H * hyper.Blocks.M
	t := hyper.Taupdt

	// Pass 1 — forward, sharded over the batch: support gather, bias,
	// optional pre-drawn noise, per-HCU softmax, one visit per row.
	if f.workers <= 1 {
		f.forwardBand(act, idx, w, bias, hyper, 0, len(idx))
	} else {
		f.parallelFor(len(idx), func(lo, hi int) {
			f.forwardBand(act, idx, w, bias, hyper, lo, hi)
		})
	}

	// Serial section — the per-unit vectors are tiny next to the matrices.
	// ColMeans keeps the composed path's sequential summation order, so the
	// float64 instantiation stays bit-identical to the kernel sequence.
	oneHotMeanLerp(ci, idx, t)
	f.meanAct = growScratch(f.meanAct, units)
	tensor.ColMeans(f.meanAct, act)
	tensor.Lerp(cj, f.meanAct, T(t))
	Homeostasis(hyper.Kbi, cj, hyper.Blocks.M, hyper.Taubdt, hyper.PMinFraction, hyper.Eps)
	updateBias(bias, hyper.Kbi, cj, hyper.Eps)
	f.logcj = growScratch(f.logcj, units)
	logMaxSlice(f.logcj, cj, T(hyper.Eps))

	// Pass 2 — trace + weight refresh, sharded over Cij/W rows, blocked so a
	// row block's decay, accumulation, and log-odds re-derivation all happen
	// while the block is cache-resident.
	if f.workers <= 1 {
		f.traceWeightBand(cij, w, act, idx, ci, hyper, 0, cij.Rows)
	} else {
		f.parallelFor(cij.Rows, func(lo, hi int) {
			f.traceWeightBand(cij, w, act, idx, ci, hyper, lo, hi)
		})
	}
}

// forwardBand computes act rows [lo,hi): support gather over the active
// blocks, bias, optional pre-drawn noise, per-HCU softmax — one pass per row.
// Rows are independent, so worker sharding cannot change the result, and
// silent weight blocks are exact zeros, so skipping them cannot either.
func (f *Fused[T]) forwardBand(act *tensor.Dense[T], idx [][]int32, w *tensor.Dense[T],
	bias []T, hyper LayerHyper[T], lo, hi int) {
	n, bi := w.Cols, hyper.Blocks
	for s := lo; s < hi; s++ {
		row := act.Row(s)
		clear(row)
		for _, in := range idx[s] {
			wrow := w.Data[int(in)*n : int(in)*n+n]
			for _, h := range bi.Active(int(in) / bi.Mi) {
				o := int(h) * bi.M
				tensor.Add(row[o:o+bi.M], wrow[o:o+bi.M])
			}
		}
		tensor.Add(row, bias)
		if hyper.Noise != nil {
			tensor.Add(row, hyper.Noise[s*n:(s+1)*n])
		}
		for g := 0; g < bi.H; g++ {
			tensor.SoftmaxRow(row[g*bi.M:(g+1)*bi.M], hyper.Temperature)
		}
	}
}

// Homeostasis adapts the per-unit bias gain kbi of m-unit hypercolumns, the
// one rule every training path runs (the composed trainer, in-pass in
// LayerStep). The paper defers the bias regulation mechanism to
// Ravichandran et al. [3]; we implement the same effect (no permanently dead
// MCUs) with a floored-bias rule: units whose activation trace cj has fallen
// below pmin = pminFraction/m get their bias gain driven toward the value
// that would place the bias at the fair-share level log(1/m), removing their
// competitive handicap so they can re-enter; healthy units relax toward gain
// 1 (the pure Bayesian bias). Documented as a substitution in DESIGN.md §3.
func Homeostasis[T tensor.Float](kbi, cj []T, m int, taubdt, pminFraction, eps float64) {
	fair := logT(1 / T(m))
	pmin := T(pminFraction) / T(m)
	tb := T(taubdt)
	epsT := T(eps)
	for j, v := range cj {
		target := T(1)
		if v < pmin {
			// log(max(v, eps)) <= log(pmin) < 0; the ratio is in (0, 1].
			target = fair / logT(max(v, epsT))
		}
		kbi[j] = (1-tb)*kbi[j] + tb*target
	}
}

// traceWeightBand updates Cij rows [lo,hi) and re-derives the matching W
// rows, in row blocks sized so one block of each matrix fits in L2 together:
// the freshly decayed-and-accumulated trace rows are consumed by the log-odds
// recompute before they can fall out of cache. The arithmetic is exactly
// oneHotOuterLerpRange over hyper.Trace followed by updateWeightsRange's
// formula over the active blocks of hyper.Blocks, with the log(Cj) table
// hoisted out (the composed kernel rebuilds it per call). Silent weight
// blocks keep their zeros.
func (f *Fused[T]) traceWeightBand(cij, w, act *tensor.Dense[T], idx [][]int32,
	ci []T, hyper LayerHyper[T], lo, hi int) {
	epsT := T(hyper.Eps)
	eps2 := epsT * epsT
	logcj := f.logcj
	bi, m := hyper.Blocks, hyper.Blocks.M
	block := fusedBlockRows(cij.Cols, int(elemSize[T]()))
	for b0 := lo; b0 < hi; b0 += block {
		b1 := min(b0+block, hi)
		oneHotOuterLerpRange(cij, idx, act, hyper.Taupdt, hyper.Trace, b0, b1)
		for i := b0; i < b1; i++ {
			logci := logT(max(ci[i], epsT))
			crow, wrow := cij.Row(i), w.Row(i)
			for _, h := range bi.Active(i / bi.Mi) {
				o := int(h) * m
				weightRowFromTrace(wrow[o:o+m], crow[o:o+m], logcj[o:o+m], logci, eps2)
			}
		}
	}
}

// weightRowFromTrace re-derives one weight row (or hypercolumn segment) from
// its freshly updated trace row: w[j] = log(max(c[j],eps²)) − log ci − log cj.
// The float64 instantiation runs the log four lanes at a time; each lane is
// bit-identical to the composed kernel's logT, and the two subtractions keep
// the composed left-to-right order.
func weightRowFromTrace[T tensor.Float](wrow, crow, logcj []T, logci, eps2 T) {
	if w64, ok := any(wrow).([]float64); ok {
		c64 := any(crow).([]float64)
		l64 := any(logcj).([]float64)
		weightRowFromTrace64(w64, c64, l64, float64(logci), float64(eps2))
		return
	}
	for j := range wrow {
		wrow[j] = logT(max(crow[j], eps2)) - logci - logcj[j]
	}
}

func weightRowFromTrace64(wrow, crow, logcj []float64, logci, eps2 float64) {
	j := 0
	if fusedLogSIMD {
		j = weightRowLogAVX(wrow, crow, logcj, logci, eps2)
	}
	for ; j+3 < len(wrow); j += 4 {
		y0, y1, y2, y3 := fastLog4(max(crow[j], eps2), max(crow[j+1], eps2),
			max(crow[j+2], eps2), max(crow[j+3], eps2))
		wrow[j] = y0 - logci - logcj[j]
		wrow[j+1] = y1 - logci - logcj[j+1]
		wrow[j+2] = y2 - logci - logcj[j+2]
		wrow[j+3] = y3 - logci - logcj[j+3]
	}
	for ; j < len(wrow); j++ {
		wrow[j] = fastLog(max(crow[j], eps2)) - logci - logcj[j]
	}
}

// logMaxSlice fills dst[j] = log(max(src[j], floor)), four lanes at a time at
// float64 — the shared log(Cj) table of the fused weight pass.
func logMaxSlice[T tensor.Float](dst, src []T, floor T) {
	if d64, ok := any(dst).([]float64); ok {
		s64 := any(src).([]float64)
		f64 := float64(floor)
		j := 0
		for ; j+3 < len(d64); j += 4 {
			d64[j], d64[j+1], d64[j+2], d64[j+3] = fastLog4(max(s64[j], f64),
				max(s64[j+1], f64), max(s64[j+2], f64), max(s64[j+3], f64))
		}
		for ; j < len(d64); j++ {
			d64[j] = fastLog(max(s64[j], f64))
		}
		return
	}
	for j, v := range src {
		dst[j] = logT(max(v, floor))
	}
}

// fusedBlockRows sizes the trace+weight row block so a Cij block and a W
// block together stay within ~128 KiB — comfortably L2-resident while leaving
// room for the activation rows the accumulation gathers.
func fusedBlockRows(cols, elem int) int {
	rowBytes := cols * elem
	if rowBytes <= 0 {
		return 64
	}
	rows := (128 << 10) / (2 * rowBytes)
	return min(max(rows, 16), 1024)
}
