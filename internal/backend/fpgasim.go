package backend

import (
	"streambrain/internal/posit"
	"streambrain/internal/tensor"
)

func init() {
	Register("fpgasim", func(workers int) Backend {
		return NewFPGASim(workers, posit.Posit16)
	})
}

// Pipeline stage indices for the FPGA streaming dataflow model. The fused
// layer step maps onto four HLS dataflow stages, mirroring the
// stream-accelerator follow-up's pipeline (arXiv 2503.01561): support
// accumulation, per-HCU softmax, trace EMA, and parameter (weight/bias)
// re-derivation.
const (
	StageSupport = iota
	StageSoftmax
	StageTrace
	StageWeight
	numStages
)

// StageName returns the dataflow stage's display name.
func StageName(stage int) string {
	switch stage {
	case StageSupport:
		return "support"
	case StageSoftmax:
		return "softmax"
	case StageTrace:
		return "trace"
	case StageWeight:
		return "weight"
	}
	return "?"
}

// PipelineStats is the FPGA simulator's streaming-pipeline cost model. Each
// dataflow stage is modeled as a hardware pipeline with initiation interval
// II=1: it retires one elementary operation per cycle. What distinguishes the
// fused layer step from the composed kernel sequence is overlap:
//
//   - a fused LayerStep streams all four stages concurrently, so the step
//     costs max(stage cycles) — the pipeline is bound by its busiest stage;
//   - a composed kernel is a separate launch whose stage runs alone, so its
//     cycles accumulate additively into TotalCycles.
//
// Occupancy(stage) = StageCycles[stage]/TotalCycles then reads as the
// fraction of device time the stage's pipeline was busy; a perfectly balanced
// fused dataflow approaches 1.0 on every stage, while the composed sequence
// can never exceed 1/numStages averaged across them.
type PipelineStats struct {
	Steps          int64 // fused whole-layer steps executed
	KernelLaunches int64 // total launches (composed kernels + 1 per fused step)
	StageOps       [numStages]int64
	StageCycles    [numStages]int64
	TotalCycles    int64
}

// Occupancy returns the fraction of total device cycles during which the
// stage's pipeline was retiring operations.
func (p PipelineStats) Occupancy(stage int) float64 {
	if p.TotalCycles == 0 {
		return 0
	}
	return float64(p.StageCycles[stage]) / float64(p.TotalCycles)
}

// FPGASim models StreamBrain's HLS FPGA backend at two levels. Numerically,
// the derived parameters (weights and biases) are stored in a reduced posit
// representation, exactly the "reduced/different numerical representation
// (e.g., Posits)" exploration §III-A describes for the FPGA target. Compute
// runs on the parallel CPU kernels (we simulate the datapath's numerics, not
// its clock); the observable effect — what the precision ablation measures —
// is the accuracy impact of posit-quantized parameters on training.
//
// Architecturally, the simulator keeps a streaming-pipeline cost model
// (PipelineStats): composed kernel calls are accounted as serialized
// launches, while LayerStep — the whole-layer offload — is accounted as one
// launch through a four-stage dataflow whose stages overlap. The Pipeline()
// snapshot quantifies the fusion argument in cycles without any RTL.
//
// Traces stay in float64: on the real device they are the accumulators,
// which HLS designs keep in wide fixed-point precisely because accumulating
// in the storage format diverges. Quantizing only the derived parameters
// mirrors that design split.
type FPGASim struct {
	dev    *Parallel[float64]
	step   *Fused[float64]
	format posit.Format
	pipe   PipelineStats
}

// NewFPGASim returns an FPGA simulator storing parameters in the given posit
// format.
func NewFPGASim(workers int, format posit.Format) *FPGASim {
	if err := format.Validate(); err != nil {
		panic(err)
	}
	return &FPGASim{
		dev:    NewParallel(workers),
		step:   NewFused(workers),
		format: format,
	}
}

// Name implements Backend.
func (f *FPGASim) Name() string { return "fpgasim" }

// Workers implements Backend.
func (f *FPGASim) Workers() int { return f.dev.Workers() }

// Format returns the posit storage format in use.
func (f *FPGASim) Format() posit.Format { return f.format }

// Pipeline returns a snapshot of the streaming-pipeline cost model.
func (f *FPGASim) Pipeline() PipelineStats { return f.pipe }

// ResetPipeline clears the pipeline cost model.
func (f *FPGASim) ResetPipeline() { f.pipe = PipelineStats{} }

// countLaunch accounts one composed kernel dispatch: a lone stage running
// with no overlap, so its cycles land additively on the total.
func (f *FPGASim) countLaunch(stage int, ops int64) {
	f.pipe.KernelLaunches++
	f.pipe.StageOps[stage] += ops
	f.pipe.StageCycles[stage] += ops
	f.pipe.TotalCycles += ops
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

// MatMul implements Backend.
func (f *FPGASim) MatMul(dst, a, b *tensor.Matrix) {
	f.countLaunch(StageSupport, int64(a.Rows)*int64(a.Cols)*int64(b.Cols))
	f.dev.MatMul(dst, a, b)
}

// MatMulATB implements Backend.
func (f *FPGASim) MatMulATB(dst, a, b *tensor.Matrix) {
	f.countLaunch(StageSupport, int64(a.Rows)*int64(a.Cols)*int64(b.Cols))
	f.dev.MatMulATB(dst, a, b)
}

// OneHotMatMul implements Backend: support gathers touch only the active
// weight panels of the block index.
func (f *FPGASim) OneHotMatMul(dst *tensor.Matrix, idx [][]int32, w *tensor.Matrix,
	bi *tensor.BlockIndex) {
	f.countLaunch(StageSupport, gatherOps(idx, bi, w.Cols))
	f.dev.OneHotMatMul(dst, idx, w, bi)
}

// AddBias implements Backend.
func (f *FPGASim) AddBias(m *tensor.Matrix, bias []float64) {
	f.countLaunch(StageSupport, int64(m.Rows)*int64(m.Cols))
	f.dev.AddBias(m, bias)
}

// SoftmaxGroups implements Backend.
func (f *FPGASim) SoftmaxGroups(m *tensor.Matrix, groups, width int, temperature float64) {
	f.countLaunch(StageSoftmax, int64(m.Rows)*int64(m.Cols))
	f.dev.SoftmaxGroups(m, groups, width, temperature)
}

// Lerp implements Backend.
func (f *FPGASim) Lerp(dst, src []float64, t float64) {
	f.countLaunch(StageTrace, int64(len(dst)))
	f.dev.Lerp(dst, src, t)
}

// LerpMatrix implements Backend.
func (f *FPGASim) LerpMatrix(dst, src *tensor.Matrix, t float64) {
	f.countLaunch(StageTrace, int64(len(dst.Data)))
	f.dev.LerpMatrix(dst, src, t)
}

// OneHotMeanLerp implements Backend.
func (f *FPGASim) OneHotMeanLerp(ci []float64, idx [][]int32, t float64) {
	f.countLaunch(StageTrace, int64(len(ci))+activeCount(idx))
	f.dev.OneHotMeanLerp(ci, idx, t)
}

// OneHotOuterLerp implements Backend: the decay pass streams the joint-trace
// elements the index covers (silent blocks are frozen) and the accumulation
// pass is a gather-shaped scatter.
func (f *FPGASim) OneHotOuterLerp(cij *tensor.Matrix, idx [][]int32, act *tensor.Matrix,
	t float64, bi *tensor.BlockIndex) {
	f.countLaunch(StageTrace, blockElems(cij, bi)+gatherOps(idx, bi, cij.Cols))
	f.dev.OneHotOuterLerp(cij, idx, act, t, bi)
}

// OuterLerp implements Backend.
func (f *FPGASim) OuterLerp(cij *tensor.Matrix, a, b *tensor.Matrix, t float64) {
	f.countLaunch(StageTrace, int64(len(cij.Data)))
	f.dev.OuterLerp(cij, a, b, t)
}

// UpdateWeights implements Backend: the float64 weight recompute of the
// panels the index covers, followed by posit storage quantization (silent
// panels hold zeros, which quantize to zeros).
func (f *FPGASim) UpdateWeights(w *tensor.Matrix, ci, cj []float64, cij *tensor.Matrix,
	bi *tensor.BlockIndex, eps float64) {
	f.countLaunch(StageWeight, blockElems(w, bi))
	f.dev.UpdateWeights(w, ci, cj, cij, bi, eps)
	f.quantizeParams(w, nil)
}

// UpdateBias implements Backend with posit storage quantization.
func (f *FPGASim) UpdateBias(bias, kbi, cj []float64, eps float64) {
	f.countLaunch(StageWeight, int64(len(bias)))
	f.dev.UpdateBias(bias, kbi, cj, eps)
	f.format.QuantizeSlice(bias)
}

// quantizeParams rounds the derived parameters into posit storage: w row
// bands in parallel (it is the large buffer), bias inline when non-nil.
func (f *FPGASim) quantizeParams(w *tensor.Matrix, bias []float64) {
	f.dev.parallelFor(w.Rows, func(lo, hi int) {
		f.format.QuantizeSlice(w.Data[lo*w.Cols : hi*w.Cols])
	})
	if bias != nil {
		f.format.QuantizeSlice(bias)
	}
}

// LayerStep implements LayerStepper: the streaming whole-layer offload. The
// fused float64 step supplies the compute; the cost model charges one launch
// through the four-stage dataflow, bounded by its busiest stage because the
// stages stream concurrently; and the derived parameters are re-quantized
// into posit storage on the way out, preserving the numerical contract of
// the composed kernels (UpdateWeights/UpdateBias quantize identically).
func (f *FPGASim) LayerStep(idx [][]int32, act *tensor.Matrix, ci, cj []float64,
	cij, w *tensor.Matrix, bias []float64, hyper LayerHyper[float64]) {
	nact := activeCount(idx)
	units := int64(len(bias))
	batch := int64(len(idx))

	// Gathers, trace decay/accumulation and weight re-derivation stream only
	// the panels their index covers: the receptive field for the support and
	// the weights, the trace index (nil = every block) for Cij.
	var ops [numStages]int64
	ops[StageSupport] = gatherOps(idx, hyper.Blocks, w.Cols) + batch*units // gathers + bias add
	if hyper.Noise != nil {
		ops[StageSupport] += batch * units
	}
	ops[StageSoftmax] = batch * units
	// ci EMA + cj EMA + Cij decay and accumulation.
	ops[StageTrace] = int64(len(ci)) + nact + units + blockElems(cij, hyper.Trace) +
		gatherOps(idx, hyper.Trace, cij.Cols)
	// W re-derivation + homeostatic gain + bias refresh.
	ops[StageWeight] = blockElems(w, hyper.Blocks) + 2*units

	f.pipe.Steps++
	f.pipe.KernelLaunches++
	var peak int64
	for s, o := range ops {
		f.pipe.StageOps[s] += o
		f.pipe.StageCycles[s] += o
		if o > peak {
			peak = o
		}
	}
	f.pipe.TotalCycles += peak

	f.step.LayerStep(idx, act, ci, cj, cij, w, bias, hyper)
	f.quantizeParams(w, bias)
}
