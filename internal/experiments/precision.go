package experiments

import (
	"math"

	"streambrain/internal/backend"
	"streambrain/internal/core"
	"streambrain/internal/metrics"
	"streambrain/internal/posit"
	"streambrain/internal/tensor"
)

// E8 — precision ablation (DESIGN.md §4, §9). The source paper's
// central numerical claim is that BCPNN Higgs training tolerates reduced
// precision: Svedin et al. 2021 run it in bfloat16 and posit arithmetic and
// report essentially unchanged AUC. This harness reproduces the comparison
// in CI-runnable form on the synthetic Higgs pipeline:
//
//   - float64:   the full-precision reference (parallel backend);
//   - float32:   training and inference with the float32 compute path
//     (Params.Precision = Float32 — forward passes and derived
//     parameters at half width, traces float64);
//   - posit16/8: the fpgasim backend, which quantizes derived-parameter
//     storage through posit(16,1) / posit(8,0).
//
// The ablation is a precision×backend grid: each precision also runs on
// every backend that defines it and changes the execution strategy — the
// fused whole-layer backend (DESIGN.md §14) and the gpusim offload model at
// float64, fused again at float32. The grid is the accuracy half of the
// fusion claim: a fused row's ΔAUC against the composed reference must
// vanish (float64, where LayerStep is bit-exact) or stay within the paper
// tolerance (float32). The float32/fused row trains its hidden layer at
// float64 — core dispatches the float64 LayerStep — so it measures float32
// inference (readout inputs and prediction) on a float64-trained layer, not
// float32 training (DESIGN.md §9).
//
// Reported per row: accuracy, AUC, train time, and the AUC delta against
// the float64 reference — the number the paper's claim is about.

// PrecisionRow is one variant's summary.
type PrecisionRow struct {
	Name       string
	Backend    string // backend registry name the variant ran on
	Acc, AUC   metrics.Summary
	Secs       metrics.Summary
	DeltaAUC   float64 // mean AUC − float64 mean AUC
	WeightsMiB float64 // derived-parameter storage at this precision
}

// PrecisionResult is the full ablation output.
type PrecisionResult struct {
	Rows []PrecisionRow
}

// DeltaAUC returns the named row's AUC delta (0 when absent).
func (r *PrecisionResult) DeltaAUC(name string) float64 {
	for _, row := range r.Rows {
		if row.Name == name {
			return row.DeltaAUC
		}
	}
	return 0
}

// precisionTrial trains one variant. The fpgasim rows swap the backend; the
// float32 row sets Params.Precision on the parallel backend.
func precisionTrial(cfg Config, splits *HiggsSplits, p core.Params,
	backendName string, format *posit.Format) (acc, auc, secs metrics.Summary) {
	variant := cfg
	variant.Backend = backendName
	if format != nil {
		// fpgasim's registry default is posit16; posit8 needs an explicit
		// construction, so run the trials against a custom trial loop.
		var accs, aucs, times []float64
		for r := 0; r < cfg.Repeats; r++ {
			pr := p
			pr.Seed = cfg.Seed + int64(1000*r)
			be := backend.NewFPGASim(cfg.Workers, *format)
			net := core.NewNetwork(be, splits.Train.Hypercolumns, splits.Train.UnitsPerHC,
				splits.Train.Classes, pr)
			res := measureNetwork(cfg, splits, net)
			accs = append(accs, res.Acc)
			aucs = append(aucs, res.AUC)
			times = append(times, res.TrainSeconds)
		}
		return metrics.Summarize(accs), metrics.Summarize(aucs), metrics.Summarize(times)
	}
	return Repeat(variant, splits, p, false)
}

// RunPrecision executes the ablation and prints one row per variant.
func RunPrecision(cfg Config, mcuCap int) *PrecisionResult {
	splits := PrepareHiggs(cfg)
	p := core.DefaultParams()
	p.MCUs = 300
	if mcuCap > 0 && p.MCUs > mcuCap {
		p.MCUs = mcuCap
	}
	p.UnsupervisedEpochs = cfg.UnsupEpochs
	p.SupervisedEpochs = cfg.SupEpochs
	p.Seed = cfg.Seed

	weightsMiB := func(bytesPerElem float64) float64 {
		elems := float64(splits.Train.TotalInputs()) * float64(p.MCUs)
		return elems * bytesPerElem / (1 << 20)
	}

	type variant struct {
		name    string
		backend string
		prec    core.Precision
		format  *posit.Format
		mib     float64
	}
	p16, p8 := posit.Posit16, posit.Posit8
	variants := []variant{
		{name: "float64", backend: cfg.Backend, prec: core.Float64, mib: weightsMiB(8)},
		{name: "float64/fused", backend: "fused", prec: core.Float64, mib: weightsMiB(8)},
		{name: "float64/gpusim", backend: "gpusim", prec: core.Float64, mib: weightsMiB(8)},
		{name: "float32", backend: cfg.Backend, prec: core.Float32, mib: weightsMiB(4)},
		{name: "float32/fused", backend: "fused", prec: core.Float32, mib: weightsMiB(4)},
		{name: "posit16", backend: "fpgasim", format: &p16, mib: weightsMiB(2)},
		{name: "posit8", backend: "fpgasim", format: &p8, mib: weightsMiB(1)},
	}

	res := &PrecisionResult{}
	cfg.printf("E8: precision×backend grid — %d events, MCUs=%d, %d repeats (SIMD %v)\n",
		cfg.Events, p.MCUs, cfg.Repeats, tensor.SIMDEnabled())
	cfg.printf("%-15s %-9s %-22s %-22s %10s %10s %9s\n",
		"variant", "backend", "accuracy", "AUC", "ΔAUC", "train s", "W MiB")
	var refAUC float64
	for i, v := range variants {
		pv := p
		pv.Precision = v.prec
		if pv.Precision.Is32() {
			// Match the other Precision entry points (NewModel, stream.New,
			// core.Load): report the unsupported combination instead of
			// letting core.NewNetwork panic mid-ablation.
			if _, err := backend.New32(v.backend, cfg.Workers); err != nil {
				cfg.printf("%-15s skipped: %v\n", v.name, err)
				continue
			}
		}
		backendName := v.backend
		if v.format != nil {
			backendName = "fpgasim"
		}
		acc, auc, secs := precisionTrial(cfg, splits, pv, v.backend, v.format)
		if i == 0 {
			refAUC = auc.Mean
		}
		row := PrecisionRow{
			Name: v.name, Backend: backendName, Acc: acc, AUC: auc, Secs: secs,
			DeltaAUC:   auc.Mean - refAUC,
			WeightsMiB: v.mib,
		}
		res.Rows = append(res.Rows, row)
		cfg.printf("%-15s %-9s %-22s %-22s %+10.4f %10.2f %9.2f\n",
			row.Name, row.Backend, acc.String(), auc.String(), row.DeltaAUC, secs.Mean, row.WeightsMiB)
	}
	if d := math.Abs(res.DeltaAUC("float32")); d > 0.005 {
		cfg.printf("WARNING: float32 AUC delta %.4f exceeds the paper-claim tolerance 0.005\n", d)
	}
	return res
}
