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
	if stage < 0 || stage >= numStages {
		return "?"
	}
	return [numStages]string{"support", "softmax", "trace", "weight"}[stage]
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
// runs on the fused CPU backend (we simulate the datapath's numerics, not
// its clock); the observable effect — what the precision ablation measures —
// is the accuracy impact of posit-quantized parameters on training.
//
// Architecturally, it is the device-cost decorator (sim.go) with a
// streaming-pipeline ledger (PipelineStats): composed kernel calls are
// accounted as serialized launches, while LayerStep — the whole-layer
// offload — is accounted as one launch through a four-stage dataflow whose
// stages overlap. The Pipeline() snapshot quantifies the fusion argument in
// cycles without any RTL.
//
// Traces stay in float64: on the real device they are the accumulators,
// which HLS designs keep in wide fixed-point precisely because accumulating
// in the storage format diverges. Quantizing only the derived parameters
// mirrors that design split.
type FPGASim struct {
	sim[float64]
	format posit.Format
	pipe   PipelineStats
}

// NewFPGASim returns an FPGA simulator storing parameters in the given posit
// format.
func NewFPGASim(workers int, format posit.Format) *FPGASim {
	if err := format.Validate(); err != nil {
		panic(err)
	}
	f := &FPGASim{format: format}
	f.sim = newSim[float64]("fpgasim", workers, f)
	return f
}

// Format returns the posit storage format in use.
func (f *FPGASim) Format() posit.Format { return f.format }

// Pipeline returns a snapshot of the streaming-pipeline cost model.
func (f *FPGASim) Pipeline() PipelineStats { return f.pipe }

// ResetPipeline clears the pipeline cost model.
func (f *FPGASim) ResetPipeline() { f.pipe = PipelineStats{} }

// charge implements ledger: a composed launch adds its cycles, a fused step
// costs its busiest stage (see PipelineStats).
func (f *FPGASim) charge(l launch[float64]) {
	f.pipe.KernelLaunches++
	var peak, sum int64
	for s, o := range l.ops {
		f.pipe.StageOps[s] += o
		f.pipe.StageCycles[s] += o
		peak, sum = max(peak, o), sum+o
	}
	if l.fused {
		f.pipe.Steps++
		sum = peak
	}
	f.pipe.TotalCycles += sum
}

// UpdateWeights implements Backend: the float64 weight recompute of the
// panels the index covers, followed by posit storage quantization (silent
// panels hold zeros, which quantize to zeros).
func (f *FPGASim) UpdateWeights(w *tensor.Matrix, ci, cj []float64, cij *tensor.Matrix,
	bi *tensor.BlockIndex, eps float64) {
	f.sim.UpdateWeights(w, ci, cj, cij, bi, eps)
	f.quantizeParams(w, nil)
}

// UpdateBias implements Backend with posit storage quantization.
func (f *FPGASim) UpdateBias(bias, kbi, cj []float64, eps float64) {
	f.sim.UpdateBias(bias, kbi, cj, eps)
	f.format.QuantizeSlice(bias)
}

// LayerStep implements Kernels: the fused float64 step, with the
// derived parameters re-quantized into posit storage on the way out —
// the numerical contract of the composed kernels (UpdateWeights/UpdateBias
// quantize identically).
func (f *FPGASim) LayerStep(idx [][]int32, act *tensor.Matrix, ci, cj []float64,
	cij, w *tensor.Matrix, bias []float64, hyper LayerHyper[float64]) {
	f.sim.LayerStep(idx, act, ci, cj, cij, w, bias, hyper)
	f.quantizeParams(w, bias)
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
