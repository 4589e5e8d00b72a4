package backend

import (
	"unsafe"

	"streambrain/internal/tensor"
)

// This file is the one device-cost decorator behind both accelerator
// simulators (DESIGN.md §14). sim runs every kernel and LayerStep on the
// fused backend and, before it delegates, charges a launch description to a
// ledger. Each kernel's cost is written once, below; gpusim reads the
// operands of a launch (residency and transfer bytes), fpgasim reads its
// per-stage operation counts (pipeline cycles).

// maxOperands bounds the buffers one launch moves: the fused step's six
// (W, bias, Ci, Cj, Cij and Kbi). The support noise is drawn on the device
// from its key, so it is never an operand.
const maxOperands = 6

// Operand directions: the kernel reads the buffer (host → device unless
// resident), writes it (device → host unless resident), or both.
const (
	opRead uint8 = 1 << iota
	opWrite
)

// operand is one buffer a launch moves: its identity (the address of its
// first element; nil for an empty buffer, which is never charged), the
// elements the kernel touches, and its direction.
type operand[T tensor.Float] struct {
	key   *T
	elems int64
	dir   uint8
}

// launch describes one device call: the one-hot index batch it uploads
// (4 bytes per index at every precision), the operands it reads and writes,
// its elementary operations per pipeline stage, and whether it is the fused
// whole-layer step, whose stages stream concurrently. A launch reaches its
// ledger by value with fixed-capacity operands, so charging never allocates.
type launch[T tensor.Float] struct {
	idx      [][]int32
	operands [maxOperands]operand[T]
	ops      [numStages]int64
	fused    bool
}

// ledger is a simulator's cost model, charged once per call before the call
// runs.
type ledger[T tensor.Float] interface{ charge(launch[T]) }

// sim is the decorator: one fused worker team for every kernel and the
// whole-layer step, one ledger for their cost. The team is a named field,
// not embedded, so a kernel added to Kernels cannot reach a simulator
// uncharged — sim fails to compile until it describes the new launch.
type sim[T tensor.Float] struct {
	name string
	dev  *Fused[T]
	led  ledger[T]
}

func newSim[T tensor.Float](name string, workers int, led ledger[T]) sim[T] {
	return sim[T]{name: name, dev: NewFusedOf[T](workers), led: led}
}

// Name implements Kernels.
func (s *sim[T]) Name() string { return s.name }

// Workers implements Kernels.
func (s *sim[T]) Workers() int { return s.dev.Workers() }

// kernel charges one composed launch: a lone pipeline stage retiring ops
// elementary operations, over the given index batch and operands.
func (s *sim[T]) kernel(stage int, ops int64, idx [][]int32, opnds ...operand[T]) {
	l := launch[T]{idx: idx}
	l.ops[stage] = ops
	copy(l.operands[:], opnds)
	s.led.charge(l)
}

// buf describes a whole buffer moved in direction dir.
func buf[T tensor.Float](b []T, dir uint8) operand[T] {
	o := operand[T]{elems: int64(len(b)), dir: dir}
	if len(b) > 0 {
		o.key = &b[0]
	}
	return o
}

// panel describes a block-tiled matrix (W or Cij) moved in direction dir at
// the index's active-element count: the modeled kernel gathers and scatters
// only the (input HCU × hidden HCU) panels bi covers — every block for nil.
func panel[T tensor.Float](m *tensor.Dense[T], bi *tensor.BlockIndex, dir uint8) operand[T] {
	o := buf(m.Data, dir)
	o.elems = blockElems(m, bi)
	return o
}

// MatMul implements Kernels.
func (s *sim[T]) MatMul(dst, a, b *tensor.Dense[T]) {
	s.kernel(StageSupport, int64(a.Rows)*int64(a.Cols)*int64(b.Cols), nil,
		buf(a.Data, opRead), buf(b.Data, opRead), buf(dst.Data, opWrite))
	s.dev.MatMul(dst, a, b)
}

// OneHotMatMul implements Kernels: the gather reads only the weight panels
// of the index.
func (s *sim[T]) OneHotMatMul(dst *tensor.Dense[T], idx [][]int32, w *tensor.Dense[T],
	bi *tensor.BlockIndex) {
	s.kernel(StageSupport, gatherOps(idx, bi, w.Cols), idx,
		panel(w, bi, opRead), buf(dst.Data, opWrite))
	s.dev.OneHotMatMul(dst, idx, w, bi)
}

// AddBias implements Kernels.
func (s *sim[T]) AddBias(m *tensor.Dense[T], bias []T) {
	s.kernel(StageSupport, int64(len(m.Data)), nil, buf(bias, opRead), buf(m.Data, opWrite))
	s.dev.AddBias(m, bias)
}

// SoftmaxGroups implements Kernels.
func (s *sim[T]) SoftmaxGroups(m *tensor.Dense[T], groups, width int, temperature float64) {
	s.kernel(StageSoftmax, int64(len(m.Data)), nil, buf(m.Data, opWrite))
	s.dev.SoftmaxGroups(m, groups, width, temperature)
}

// Lerp implements Kernels.
func (s *sim[T]) Lerp(dst, src []T, t float64) {
	s.kernel(StageTrace, int64(len(dst)), nil, buf(src, opRead), buf(dst, opWrite))
	s.dev.Lerp(dst, src, t)
}

// OneHotMeanLerp implements Kernels.
func (s *sim[T]) OneHotMeanLerp(ci []T, idx [][]int32, t float64) {
	s.kernel(StageTrace, int64(len(ci))+activeCount(idx), idx, buf(ci, opWrite))
	s.dev.OneHotMeanLerp(ci, idx, t)
}

// OneHotOuterLerp implements Kernels: the decay streams the joint-trace
// panels the index covers (silent blocks are frozen, so the modeled kernel
// never touches them) and the accumulation is a gather-shaped scatter.
func (s *sim[T]) OneHotOuterLerp(cij *tensor.Dense[T], idx [][]int32, act *tensor.Dense[T],
	t float64, bi *tensor.BlockIndex) {
	s.kernel(StageTrace, blockElems(cij, bi)+gatherOps(idx, bi, cij.Cols), idx,
		buf(act.Data, opRead), panel(cij, bi, opWrite))
	s.dev.OneHotOuterLerp(cij, idx, act, t, bi)
}

// OuterLerp implements Kernels.
func (s *sim[T]) OuterLerp(cij *tensor.Dense[T], a, b *tensor.Dense[T], t float64) {
	s.kernel(StageTrace, int64(len(cij.Data)), nil,
		buf(a.Data, opRead), buf(b.Data, opRead), buf(cij.Data, opWrite))
	s.dev.OuterLerp(cij, a, b, t)
}

// UpdateWeights implements Kernels: the joint-trace read and the weight
// write move the panels the index covers.
func (s *sim[T]) UpdateWeights(w *tensor.Dense[T], ci, cj []T, cij *tensor.Dense[T],
	bi *tensor.BlockIndex, eps float64) {
	s.kernel(StageWeight, blockElems(w, bi), nil, buf(ci, opRead), buf(cj, opRead),
		panel(cij, bi, opRead), panel(w, bi, opWrite))
	s.dev.UpdateWeights(w, ci, cj, cij, bi, eps)
}

// UpdateBias implements Kernels.
func (s *sim[T]) UpdateBias(bias, kbi, cj []T, eps float64) {
	s.kernel(StageWeight, int64(len(bias)), nil, buf(kbi, opRead), buf(cj, opRead), buf(bias, opWrite))
	s.dev.UpdateBias(bias, kbi, cj, eps)
}

// LayerStep implements Kernels: the whole-layer offload as one launch.
// The model state is read and written in place — W in the receptive
// field's panels, Cij in the trace index's, the short vectors whole; the
// support noise is generated on the device from its key and the activations
// are device scratch, so neither is moved. The four dataflow stages stream
// concurrently over the same panels.
func (s *sim[T]) LayerStep(idx [][]int32, act *tensor.Dense[T], ci, cj []T,
	cij, w *tensor.Dense[T], bias []T, hyper LayerHyper[T]) {
	const rw = opRead | opWrite
	batch, units := int64(len(idx)), int64(len(bias))
	l := launch[T]{idx: idx, fused: true, operands: [maxOperands]operand[T]{
		panel(w, hyper.Blocks, rw), buf(bias, rw), buf(ci, rw), buf(cj, rw),
		panel(cij, hyper.Trace, rw), buf(hyper.Kbi, rw)}}
	// Gathers and bias add (plus the noise add), then the softmax.
	l.ops[StageSupport] = gatherOps(idx, hyper.Blocks, w.Cols) + batch*units
	if hyper.NoiseStd > 0 {
		l.ops[StageSupport] += batch * units
	}
	l.ops[StageSoftmax] = batch * units
	// Ci EMA + Cj EMA + Cij decay and accumulation.
	l.ops[StageTrace] = int64(len(ci)) + activeCount(idx) + units +
		blockElems(cij, hyper.Trace) + gatherOps(idx, hyper.Trace, cij.Cols)
	// W re-derivation + homeostatic gain + bias refresh.
	l.ops[StageWeight] = blockElems(w, hyper.Blocks) + 2*units
	s.led.charge(l)
	s.dev.LayerStep(idx, act, ci, cj, cij, w, bias, hyper)
}

// elemSize is the modeled per-element transfer cost: sizeof(T).
func elemSize[T tensor.Float]() int64 {
	var z T
	return int64(unsafe.Sizeof(z))
}

// activeCount returns the total number of active one-hot indices in a batch.
func activeCount(idx [][]int32) int64 {
	var n int64
	for _, a := range idx {
		n += int64(len(a))
	}
	return n
}

// gatherOps counts the elementary operations of a one-hot gather or scatter
// over cols-wide rows: for each active index of each sample, one M-wide panel
// op per hidden HCU the index's input hypercolumn reaches (a whole row for
// nil bi).
func gatherOps(idx [][]int32, bi *tensor.BlockIndex, cols int) int64 {
	if bi == nil {
		return activeCount(idx) * int64(cols)
	}
	var n int64
	for _, sample := range idx {
		for _, in := range sample {
			n += int64(len(bi.Active(int(in)/bi.Mi))) * int64(bi.M)
		}
	}
	return n
}

// blockElems returns the number of elements of m the index covers — all of
// them for nil.
func blockElems[T tensor.Float](m *tensor.Dense[T], bi *tensor.BlockIndex) int64 {
	if bi == nil {
		return int64(len(m.Data))
	}
	return bi.ActiveElems()
}
