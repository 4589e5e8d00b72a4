package backend

import (
	"math"
	"unsafe"

	"streambrain/internal/tensor"
)

func init() {
	Register("naive", func(int) Backend { return &Naive[float64]{} })
	Register32("naive", func(int) Backend32 { return &Naive[float32]{} })
}

// Naive is the single-threaded reference backend. Every other backend is
// cross-checked against it by the conformance tests, mirroring the role the
// NumPy implementation plays for StreamBrain's hand-coded kernels.
type Naive[T tensor.Float] struct{}

// Name implements Kernels.
func (*Naive[T]) Name() string { return "naive" }

// Workers implements Kernels.
func (*Naive[T]) Workers() int { return 1 }

// MatMul implements Kernels.
func (*Naive[T]) MatMul(dst, a, b *tensor.Dense[T]) { tensor.MatMulNaive(dst, a, b) }

// OneHotMatMul implements Kernels.
func (*Naive[T]) OneHotMatMul(dst *tensor.Dense[T], idx [][]int32, w *tensor.Dense[T],
	bi *tensor.BlockIndex) {
	tensor.OneHotMatMul(dst, idx, w, bi)
}

// AddBias implements Kernels.
func (*Naive[T]) AddBias(m *tensor.Dense[T], bias []T) { addBiasRange(m, bias, 0, m.Rows) }

func addBiasRange[T tensor.Float](m *tensor.Dense[T], bias []T, r0, r1 int) {
	if len(bias) != m.Cols {
		panic("backend: AddBias length mismatch")
	}
	for r := r0; r < r1; r++ {
		row := m.Row(r)
		for c, b := range bias {
			row[c] += b
		}
	}
}

// SoftmaxGroups implements Kernels.
func (*Naive[T]) SoftmaxGroups(m *tensor.Dense[T], groups, width int, temperature float64) {
	tensor.SoftmaxGroups(m, groups, width, temperature)
}

// Lerp implements Kernels.
func (*Naive[T]) Lerp(dst, src []T, t float64) { tensor.Lerp(dst, src, T(t)) }

// OneHotMeanLerp implements Kernels.
func (*Naive[T]) OneHotMeanLerp(ci []T, idx [][]int32, t float64) {
	oneHotMeanLerp(ci, idx, t)
}

func oneHotMeanLerp[T tensor.Float](ci []T, idx [][]int32, t float64) {
	if len(idx) == 0 {
		return
	}
	tensor.Scale(1-T(t), ci)
	inc := T(t) / T(len(idx))
	for _, active := range idx {
		for _, i := range active {
			ci[i] += inc
		}
	}
}

// OneHotOuterLerp implements Kernels.
func (*Naive[T]) OneHotOuterLerp(cij *tensor.Dense[T], idx [][]int32, act *tensor.Dense[T],
	t float64, bi *tensor.BlockIndex) {
	oneHotOuterLerpRange(cij, idx, act, t, bi, 0, cij.Rows)
}

// oneHotOuterLerpRange applies the decay+accumulate to cij rows [r0,r1).
// Restricting to a row band lets the parallel backend shard without locks.
// nil bi walks whole rows; otherwise each active (fi,h) block is decayed and
// accumulated one M-wide segment at a time and silent blocks stay frozen.
// Every backend routes through this one helper, so the segmentation — which
// fixes the lanes the FMA microkernel covers — and therefore the result is
// bit-identical across backends and worker counts.
func oneHotOuterLerpRange[T tensor.Float](cij *tensor.Dense[T], idx [][]int32,
	act *tensor.Dense[T], t float64, bi *tensor.BlockIndex, r0, r1 int) {
	if len(idx) != act.Rows {
		panic("backend: OneHotOuterLerp batch mismatch")
	}
	if cij.Cols != act.Cols {
		panic("backend: OneHotOuterLerp width mismatch")
	}
	if bi != nil && (bi.Fi*bi.Mi != cij.Rows || bi.H*bi.M != cij.Cols) {
		panic("backend: OneHotOuterLerp block-index geometry mismatch")
	}
	if len(idx) == 0 {
		return
	}
	omt, inc := 1-T(t), T(t)/T(len(idx))
	if bi == nil {
		tensor.Scale(omt, cij.Data[r0*cij.Cols:r1*cij.Cols])
		for s, active := range idx {
			arow := act.Row(s)
			for _, i := range active {
				if ii := int(i); ii >= r0 && ii < r1 {
					tensor.Axpy(inc, arow, cij.Row(ii))
				}
			}
		}
		return
	}
	m := bi.M
	for i := r0; i < r1; i++ {
		row := cij.Row(i)
		for _, h := range bi.Active(i / bi.Mi) {
			o := int(h) * m
			tensor.Scale(omt, row[o:o+m])
		}
	}
	for s, active := range idx {
		arow := act.Row(s)
		for _, in := range active {
			ii := int(in)
			if ii < r0 || ii >= r1 {
				continue
			}
			row := cij.Row(ii)
			for _, h := range bi.Active(ii / bi.Mi) {
				o := int(h) * m
				tensor.Axpy(inc, arow[o:o+m], row[o:o+m])
			}
		}
	}
}

// OuterLerp implements Kernels.
func (*Naive[T]) OuterLerp(cij *tensor.Dense[T], a, b *tensor.Dense[T], t float64) {
	outerLerp(cij, a, b, t, nil, func(dst, x, y *tensor.Dense[T]) { tensor.MatMulATB(dst, x, y) })
}

// outerLerp implements cij = (1-t)cij + (t/rows)·aᵀb given an ATB kernel,
// with aᵀb in tmp's storage (see tensor.Resize); it returns the scratch for
// the caller to keep.
func outerLerp[T tensor.Float](cij *tensor.Dense[T], a, b *tensor.Dense[T], t float64,
	tmp *tensor.Dense[T], atb func(dst, x, y *tensor.Dense[T])) *tensor.Dense[T] {
	if a.Rows == 0 {
		return tmp
	}
	tmp = tensor.Resize(tmp, a.Cols, b.Cols)
	atb(tmp, a, b)
	tensor.Scale(1/T(a.Rows), tmp.Data)
	tensor.Lerp(cij.Data, tmp.Data, T(t))
	return tmp
}

// logT is the precision-matched natural log: float64 goes through math.Log,
// float32 through the reduced-precision tensor.Log32 — the transcendental
// substitution that makes the float32 UpdateWeights kernel cheap
// (DESIGN.md §9). The unsafe.Sizeof branch is a per-instantiation compile-
// time constant, so each stenciled shape keeps only its own log and the
// dispatch costs nothing per element (an any-based type switch here costs
// more than the log itself).
func logT[T tensor.Float](x T) T {
	if unsafe.Sizeof(x) == 4 {
		return T(tensor.Log32(float32(x)))
	}
	return T(math.Log(float64(x)))
}

// UpdateWeights implements Kernels.
func (*Naive[T]) UpdateWeights(w *tensor.Dense[T], ci, cj []T, cij *tensor.Dense[T],
	bi *tensor.BlockIndex, eps float64) {
	logcj := make([]T, len(cj))
	logMaxCols(logcj, cj, eps)
	updateWeightsRange(w, ci, logcj, cij, bi, eps, logOdds[T], 0, w.Rows)
}

// logMaxCols fills logcj with log(max(cj,eps)), computed once per column
// because every weight row shares it.
func logMaxCols[T tensor.Float](logcj, cj []T, eps float64) {
	epsT := T(eps)
	for j, v := range cj {
		logcj[j] = logT(max(v, epsT))
	}
}

// updateWeightsRange recomputes w rows [r0,r1) from the traces, given
// logcj = log(max(cj,eps)): every element for nil bi, otherwise only the
// active blocks (silent blocks are not written; the caller keeps them at
// zero). Each row or block segment goes through row: logOdds on the
// composed backends, the bit-identical four-lane weightRowFromTrace on fused.
//
// Row i of w corresponds to input unit i, living in input hypercolumn
// i/Mi. Column j corresponds to hidden unit j in hypercolumn j/M.
func updateWeightsRange[T tensor.Float](w *tensor.Dense[T], ci, logcj []T, cij *tensor.Dense[T],
	bi *tensor.BlockIndex, eps float64, row weightRowFunc[T], r0, r1 int) {
	if w.Rows != cij.Rows || w.Cols != cij.Cols {
		panic("backend: UpdateWeights shape mismatch")
	}
	if len(ci) != w.Rows || len(logcj) != w.Cols {
		panic("backend: UpdateWeights trace length mismatch")
	}
	if bi != nil && (bi.Fi*bi.Mi != w.Rows || bi.H*bi.M != w.Cols) {
		panic("backend: UpdateWeights block-index geometry mismatch")
	}
	epsT := T(eps)
	eps2 := epsT * epsT
	for i := r0; i < r1; i++ {
		logci := logT(max(ci[i], epsT))
		crow, wrow := cij.Row(i), w.Row(i)
		if bi == nil {
			row(wrow, crow, logcj, logci, eps2)
			continue
		}
		for _, h := range bi.Active(i / bi.Mi) {
			o, e := int(h)*bi.M, (int(h)+1)*bi.M
			row(wrow[o:e], crow[o:e], logcj[o:e], logci, eps2)
		}
	}
}

// weightRowFunc re-derives one weight row or block segment from its trace
// row, given log ci and the matching slice of the log(Cj) table.
type weightRowFunc[T tensor.Float] func(wrow, crow, logcj []T, logci, eps2 T)

// logOdds writes w[j] = log(max(c[j],eps²)) − log ci − log cj[j] over one
// weight row or block segment.
func logOdds[T tensor.Float](wrow, crow, logcj []T, logci, eps2 T) {
	for j := range wrow {
		wrow[j] = logT(max(crow[j], eps2)) - logci - logcj[j]
	}
}

// UpdateBias implements Kernels.
func (*Naive[T]) UpdateBias(bias, kbi, cj []T, eps float64) {
	updateBias(bias, kbi, cj, eps)
}

// LayerStep implements Kernels as the composed kernel sequence.
func (n *Naive[T]) LayerStep(idx [][]int32, act *tensor.Dense[T], ci, cj []T,
	cij, w *tensor.Dense[T], bias []T, hyper LayerHyper[T]) {
	ComposedStep[T](n, idx, act, ci, cj, cij, w, bias, hyper, make([]T, len(cj)))
}

func updateBias[T tensor.Float](bias, kbi, cj []T, eps float64) {
	if len(bias) != len(cj) || len(kbi) != len(cj) {
		panic("backend: UpdateBias length mismatch")
	}
	epsT := T(eps)
	for j := range bias {
		bias[j] = kbi[j] * logT(max(cj[j], epsT))
	}
}
