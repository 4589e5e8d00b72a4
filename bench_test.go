// Benchmark harness: one benchmark per paper figure (DESIGN.md §4 E1–E6)
// plus the ablation benches for the design choices DESIGN.md §5 calls out.
// Figure benches run reduced-scale training trials; their custom metrics
// (acc, auc) report the quality achieved at that scale, while ns/op reports
// the training cost — together they regenerate the shape of the paper's
// accuracy/time plots. cmd/experiments produces the full tables.
package streambrain_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"streambrain/internal/backend"
	"streambrain/internal/core"
	"streambrain/internal/data"
	"streambrain/internal/experiments"
	"streambrain/internal/gbt"
	"streambrain/internal/higgs"
	"streambrain/internal/metrics"
	"streambrain/internal/mlp"
	"streambrain/internal/mnistgen"
	"streambrain/internal/mpi"
	"streambrain/internal/posit"
	"streambrain/internal/serve"
	"streambrain/internal/serve/wire"
	"streambrain/internal/stream"
	"streambrain/internal/tensor"
	"streambrain/internal/viz"
)

// benchSplits lazily prepares one shared Higgs split for all figure benches.
var benchSplitsCache *experiments.HiggsSplits

func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Events = 12000
	cfg.Repeats = 1
	cfg.UnsupEpochs = 3
	cfg.SupEpochs = 3
	cfg.Workers = 0
	cfg.OutDir = ""
	return cfg
}

func benchSplits(b *testing.B) *experiments.HiggsSplits {
	b.Helper()
	if benchSplitsCache == nil {
		benchSplitsCache = experiments.PrepareHiggs(benchConfig())
	}
	return benchSplitsCache
}

// BenchmarkFig3Capacity is E1: one training trial per (HCU, MCU) capacity
// point of the paper's Fig. 3 grid (MCUs reduced 10× to keep bench runtime
// sane; shape is preserved).
func BenchmarkFig3Capacity(b *testing.B) {
	cfg := benchConfig()
	splits := benchSplits(b)
	for _, mcus := range []int{30, 300} {
		for _, hcus := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("HCU=%d/MCU=%d", hcus, mcus), func(b *testing.B) {
				p := core.DefaultParams()
				p.HCUs = hcus
				p.MCUs = mcus
				p.ReceptiveField = 0.30
				p.UnsupervisedEpochs = cfg.UnsupEpochs
				p.SupervisedEpochs = cfg.SupEpochs
				var last experiments.TrialResult
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Seed = int64(i + 1)
					last = experiments.RunTrial(cfg, splits, p, false)
				}
				b.ReportMetric(last.Acc, "acc")
				b.ReportMetric(last.AUC, "auc")
			})
		}
	}
}

// BenchmarkFig4ReceptiveField is E2: one training trial per receptive-field
// size of the paper's Fig. 4 sweep.
func BenchmarkFig4ReceptiveField(b *testing.B) {
	cfg := benchConfig()
	splits := benchSplits(b)
	for _, rf := range []float64{0.05, 0.25, 0.40, 0.65, 0.95} {
		b.Run(fmt.Sprintf("RF=%02.0f%%", rf*100), func(b *testing.B) {
			p := core.DefaultParams()
			p.HCUs = 1
			p.MCUs = 300
			p.ReceptiveField = rf
			p.UnsupervisedEpochs = cfg.UnsupEpochs
			p.SupervisedEpochs = cfg.SupEpochs
			var last experiments.TrialResult
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Seed = int64(i + 1)
				last = experiments.RunTrial(cfg, splits, p, false)
			}
			b.ReportMetric(last.Acc, "acc")
			b.ReportMetric(last.AUC, "auc")
		})
	}
}

// BenchmarkFig5MaskEvolution is E3: unsupervised training plus the mask
// montage render at one mid-sweep receptive field.
func BenchmarkFig5MaskEvolution(b *testing.B) {
	cfg := benchConfig()
	splits := benchSplits(b)
	b.ReportAllocs()
	b.ResetTimer() // benchSplits may generate the shared split on first call
	for i := 0; i < b.N; i++ {
		p := core.DefaultParams()
		p.HCUs = 1
		p.MCUs = 100
		p.ReceptiveField = 0.40
		p.SupervisedEpochs = 0
		p.Seed = int64(i + 1)
		be := backend.MustNew(cfg.Backend, cfg.Workers)
		net := core.NewNetwork(be, splits.Train.Hypercolumns, splits.Train.UnitsPerHC,
			splits.Train.Classes, p)
		net.TrainUnsupervised(splits.Train, cfg.UnsupEpochs)
		fields := experiments.MaskFields(net.Hidden, experiments.HiggsGrid)
		_ = viz.RenderMontage(fields, 5, 8)
	}
}

// BenchmarkFig1MNISTFields is E4: the MNIST receptive-field run.
func BenchmarkFig1MNISTFields(b *testing.B) {
	cfg := benchConfig()
	cfg.UnsupEpochs = 6
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := experiments.RunFig1(cfg, 1000, 3, 20, 0.06); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2InSitu is E5: the per-epoch co-processing cost (VTI + PNG
// render of 4 receptive fields), the overhead the in-situ feature adds to
// each epoch.
func BenchmarkFig2InSitu(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	fields := make([]viz.Field, 4)
	for h := range fields {
		mask := make([]bool, 28)
		for i := range mask {
			mask[i] = rng.Intn(2) == 0
		}
		fields[h] = viz.BoolField(fmt.Sprintf("hcu%d", h), 7, 4, mask)
	}
	dir := b.TempDir()
	vti, err := viz.NewVTIWriter(dir, "bench")
	if err != nil {
		b.Fatal(err)
	}
	png, err := viz.NewPNGWriter(dir, "bench", 4, 8)
	if err != nil {
		b.Fatal(err)
	}
	adaptors := viz.Multi{vti, png}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := adaptors.CoProcess(i, fields); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselines is E6: one fit+evaluate per related-work model family.
func BenchmarkBaselines(b *testing.B) {
	cfg := benchConfig()
	splits := benchSplits(b)
	std := data.FitStandardizer(splits.TrainRaw)
	xtr := std.Transform(splits.TrainRaw)
	xte := std.Transform(splits.TestRaw)

	b.Run("BCPNN", func(b *testing.B) {
		p := core.DefaultParams()
		p.MCUs = 300
		p.ReceptiveField = 0.40
		p.UnsupervisedEpochs = cfg.UnsupEpochs
		p.SupervisedEpochs = cfg.SupEpochs
		var last experiments.TrialResult
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Seed = int64(i + 1)
			last = experiments.RunTrial(cfg, splits, p, false)
		}
		b.ReportMetric(last.AUC, "auc")
	})
	b.Run("BCPNN+SGD", func(b *testing.B) {
		p := core.DefaultParams()
		p.MCUs = 300
		p.ReceptiveField = 0.40
		p.UnsupervisedEpochs = cfg.UnsupEpochs
		p.SupervisedEpochs = cfg.SupEpochs
		var last experiments.TrialResult
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Seed = int64(i + 1)
			last = experiments.RunTrial(cfg, splits, p, true)
		}
		b.ReportMetric(last.AUC, "auc")
	})
	b.Run("MLP", func(b *testing.B) {
		var auc float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mcfg := mlp.DefaultConfig()
			mcfg.Epochs = 8
			mcfg.Seed = int64(i + 1)
			net := mlp.New(xtr.Cols, 2, mcfg)
			net.Fit(xtr, splits.TrainRaw.Y)
			_, score := net.Predict(xte)
			auc = metrics.AUC(score, splits.TestRaw.Y)
		}
		b.ReportMetric(auc, "auc")
	})
	b.Run("BDT", func(b *testing.B) {
		var auc float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gcfg := gbt.DefaultConfig()
			gcfg.Trees = 80
			gcfg.Seed = int64(i + 1)
			model := gbt.Fit(xtr, splits.TrainRaw.Y, gcfg)
			_, score := model.Predict(xte)
			auc = metrics.AUC(score, splits.TestRaw.Y)
		}
		b.ReportMetric(auc, "auc")
	})
}

// ---------------------------------------------------------------- ablations

// BenchmarkGEMM is ablation A1: the kernel backends across sizes, including
// the dimension-sensitivity the paper observes on GPUs ("Jiggs"): 512 is
// tile-aligned, 500 and 516 are not.
func BenchmarkGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{128, 500, 512, 516} {
		a := tensor.NewMatrix(n, n)
		c := tensor.NewMatrix(n, n)
		dst := tensor.NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.Float64()
			c.Data[i] = rng.Float64()
		}
		for _, name := range []string{"naive", "parallel", "gpusim"} {
			if name == "naive" && n > 128 {
				continue // quadratic pain, nothing to learn beyond 128
			}
			be := backend.MustNew(name, 0)
			b.Run(fmt.Sprintf("backend=%s/n=%d", name, n), func(b *testing.B) {
				b.SetBytes(int64(8 * n * n))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					be.MatMul(dst, a, c)
				}
				flops := 2 * float64(n) * float64(n) * float64(n)
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// BenchmarkGEMMBlocking is ablation A1b: cache-block size sweep (DESIGN.md
// §5.3).
func BenchmarkGEMMBlocking(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const n = 384
	a := tensor.NewMatrix(n, n)
	c := tensor.NewMatrix(n, n)
	dst := tensor.NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
		c.Data[i] = rng.Float64()
	}
	for _, block := range []int{8, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("block=%d", block), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tensor.MatMulBlocked(dst, a, c, block)
			}
		})
	}
}

// BenchmarkOneHotVsDense is ablation A2 of DESIGN.md §5: the sparse one-hot
// input GEMM against the equivalent dense multiply (28 active of 280).
func BenchmarkOneHotVsDense(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const batch, groups, width, units = 128, 28, 10, 1000
	w := tensor.NewMatrix(groups*width, units)
	for i := range w.Data {
		w.Data[i] = rng.Float64()
	}
	idx := make([][]int32, batch)
	dense := tensor.NewMatrix(batch, groups*width)
	for s := 0; s < batch; s++ {
		for g := 0; g < groups; g++ {
			hot := int32(g*width + rng.Intn(width))
			idx[s] = append(idx[s], hot)
			dense.Set(s, int(hot), 1)
		}
	}
	dst := tensor.NewMatrix(batch, units)
	b.Run("onehot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.OneHotMatMulParallel(dst, idx, w, nil, 0)
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.MatMulParallel(dst, dense, w, 0, 0)
		}
	})
}

// BenchmarkTraceUpdate is ablation A4: the fused batch trace update
// (scale-then-scatter) at Fig-3 headline geometry.
func BenchmarkTraceUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	const batch, groups, width, units = 128, 28, 10, 3000
	cij := tensor.NewMatrix(groups*width, units)
	act := tensor.NewMatrix(batch, units)
	for i := range act.Data {
		act.Data[i] = rng.Float64()
	}
	idx := make([][]int32, batch)
	for s := 0; s < batch; s++ {
		for g := 0; g < groups; g++ {
			idx[s] = append(idx[s], int32(g*width+rng.Intn(width)))
		}
	}
	for _, name := range []string{"naive", "parallel"} {
		be := backend.MustNew(name, 0)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				be.OneHotOuterLerp(cij, idx, act, 0.01, nil)
			}
		})
	}
}

// BenchmarkLayerStep is the whole-layer offload ablation (DESIGN.md §14):
// one fused LayerStep against parallel's, which is ComposedStep — the same
// update as a kernel sequence — serial and with the full worker team.
// ReportAllocs pins the fused serial path's zero-allocation steady state.
func BenchmarkLayerStep(b *testing.B) {
	const batch, fi, mi, h, m = 128, 28, 10, 1, 1000
	in, units := fi*mi, h*m
	rng := rand.New(rand.NewSource(5))
	idx := make([][]int32, batch)
	for s := range idx {
		for g := 0; g < fi; g++ {
			idx[s] = append(idx[s], int32(g*mi+rng.Intn(mi)))
		}
	}
	ci := make([]float64, in)
	cj := make([]float64, units)
	kbi := make([]float64, units)
	bias := make([]float64, units)
	for i := range ci {
		ci[i] = rng.Float64()*0.9 + 0.05
	}
	for j := range cj {
		cj[j] = rng.Float64()*0.9 + 0.05
		kbi[j] = 1
	}
	cij := tensor.NewMatrix(in, units)
	w := tensor.NewMatrix(in, units)
	act := tensor.NewMatrix(batch, units)
	for i := range cij.Data {
		cij.Data[i] = rng.Float64()*0.9 + 0.05
		w.Data[i] = rng.NormFloat64()
	}
	hyper := backend.LayerHyper[float64]{
		Taupdt: 0.01, Taubdt: 0.01, PMinFraction: 0.1,
		Temperature: 1, Eps: 1e-9, Kbi: kbi,
		Blocks: tensor.NewBlockIndex(nil, fi, mi, h, m),
	}
	for _, workers := range []int{1, 0} {
		for _, c := range []struct{ sub, backend string }{{"fused", "fused"}, {"composed", "parallel"}} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.sub, workers), func(b *testing.B) {
				be := backend.MustNew(c.backend, workers)
				be.LayerStep(idx, act, ci, cj, cij, w, bias, hyper) // warm scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					be.LayerStep(idx, act, ci, cj, cij, w, bias, hyper)
				}
			})
		}
	}
}

// BenchmarkTrainStep times one full unsupervised BCPNN batch step per
// backend at the paper's headline geometry (1 HCU × 3000 MCUs).
func BenchmarkTrainStep(b *testing.B) {
	splits := benchSplits(b)
	for _, name := range []string{"naive", "parallel", "fused", "gpusim"} {
		b.Run(name, func(b *testing.B) {
			p := core.DefaultParams()
			p.MCUs = 3000
			p.ReceptiveField = 0.30
			rng := rand.New(rand.NewSource(1))
			layer := core.NewHiddenLayer(backend.MustNew(name, 0),
				splits.Train.Hypercolumns, splits.Train.UnitsPerHC, p, rng)
			layer.InitTracesFromData(splits.Train.Idx[:1024])
			batch := splits.Train.Idx[:128]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				layer.TrainBatch(batch)
			}
		})
	}
}

// BenchmarkOffload is ablation A4 (DESIGN.md §5.6): identical training steps
// under the offloaded vs chatty transfer policy; the reported MB/step metric
// is the modeled host↔device traffic difference that motivates StreamBrain's
// fully-offloaded CUDA design.
func BenchmarkOffload(b *testing.B) {
	splits := benchSplits(b)
	for _, policy := range []backend.TransferPolicy{backend.PolicyOffloaded, backend.PolicyChatty} {
		b.Run(policy.String(), func(b *testing.B) {
			g := backend.NewGPUSim(0, policy)
			p := core.DefaultParams()
			p.MCUs = 1000
			rng := rand.New(rand.NewSource(1))
			layer := core.NewHiddenLayer(g, splits.Train.Hypercolumns,
				splits.Train.UnitsPerHC, p, rng)
			layer.InitTracesFromData(splits.Train.Idx[:1024])
			if policy == backend.PolicyOffloaded {
				g.MakeResident(layer.W.Data, layer.Bias, layer.Kbi,
					layer.Ci, layer.Cj, layer.Cij.Data)
			}
			g.ResetStats()
			batch := splits.Train.Idx[:128]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				layer.TrainBatch(batch)
			}
			st := g.Stats()
			perStep := float64(st.BytesH2D+st.BytesD2H) / float64(b.N) / (1 << 20)
			b.ReportMetric(perStep, "MB-moved/step")
			b.ReportMetric(float64(st.KernelLaunches)/float64(b.N), "launches/step")
		})
	}
}

// BenchmarkMPIScaling is ablation A3: the per-epoch trace allreduce across
// rank counts and transports at headline trace size. The committed
// BENCH_scaling.json (perf suite "scaling", DESIGN.md §10) carries the
// pinned-work version of this sweep.
func BenchmarkMPIScaling(b *testing.B) {
	const traceLen = 280 * 1000
	for _, transport := range []string{"chan", "tcp"} {
		for _, ranks := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("%s/ranks=%d", transport, ranks), func(b *testing.B) {
				var w *mpi.World
				if transport == "tcp" {
					var err error
					w, err = mpi.NewTCPWorld(ranks, mpi.TCPOptions{})
					if err != nil {
						b.Fatal(err)
					}
					defer w.Close()
				} else {
					w = mpi.NewWorld(ranks)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					err := w.Run(func(c *mpi.Comm) error {
						buf := make([]float64, traceLen)
						for j := range buf {
							buf[j] = float64(c.Rank())
						}
						return c.AllreduceMean(buf)
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(int64(8 * traceLen))
			})
		}
	}
}

// BenchmarkStructuralPlasticity is ablation A5 (DESIGN.md §5.1): the cost of
// the dense-trace MI scan plus swap at Fig-3 geometry.
func BenchmarkStructuralPlasticity(b *testing.B) {
	splits := benchSplits(b)
	p := core.DefaultParams()
	p.MCUs = 1000
	p.ReceptiveField = 0.30
	rng := rand.New(rand.NewSource(1))
	layer := core.NewHiddenLayer(backend.MustNew("parallel", 0),
		splits.Train.Hypercolumns, splits.Train.UnitsPerHC, p, rng)
	layer.InitTracesFromData(splits.Train.Idx[:1024])
	layer.TrainBatch(splits.Train.Idx[:128])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layer.StructuralUpdate()
	}
}

// BenchmarkFPGAPrecision is ablation A7: full training trials with posit-
// quantized parameter storage (the fpgasim backend) against float64,
// reporting the achieved accuracy per numeric format — the paper's
// FPGA/posit exploration (§III-A) in measurable form.
func BenchmarkFPGAPrecision(b *testing.B) {
	cfg := benchConfig()
	splits := benchSplits(b)
	cases := []struct {
		name string
		be   func() backend.Backend
	}{
		{"float64", func() backend.Backend { return backend.MustNew("parallel", 0) }},
		{"posit16", func() backend.Backend { return backend.NewFPGASim(0, posit.Posit16) }},
		{"posit8", func() backend.Backend { return backend.NewFPGASim(0, posit.Posit8) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var acc, auc float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := core.DefaultParams()
				p.MCUs = 300
				p.ReceptiveField = 0.40
				p.Seed = int64(i + 1)
				net := core.NewNetwork(c.be(), splits.Train.Hypercolumns,
					splits.Train.UnitsPerHC, splits.Train.Classes, p)
				net.TrainUnsupervised(splits.Train, cfg.UnsupEpochs)
				net.TrainSupervised(splits.Train, cfg.SupEpochs)
				net.CalibrateThreshold(splits.Train)
				acc, auc = net.Evaluate(splits.Test)
			}
			b.ReportMetric(acc, "acc")
			b.ReportMetric(auc, "auc")
		})
	}
}

// BenchmarkServePredict measures online-inference throughput through the
// serving subsystem: "batch=1" scores one raw event per backend call (the
// no-batching baseline), "coalesced" pushes many concurrent requests through
// the micro-batcher so they merge into backend-sized forward passes. The
// events/s gap is the serving-side analogue of the training-side batching
// win; avg-batch reports the amortization factor achieved.
func BenchmarkServePredict(b *testing.B) {
	splits := benchSplits(b)
	p := core.DefaultParams()
	p.MCUs = 300
	p.ReceptiveField = 0.40
	p.Seed = 1
	net := core.NewNetwork(backend.MustNew("parallel", 0), splits.Train.Hypercolumns,
		splits.Train.UnitsPerHC, splits.Train.Classes, p)
	net.TrainUnsupervised(splits.Train, 2)
	net.TrainSupervised(splits.Train, 2)
	net.CalibrateThreshold(splits.Train)
	var buf bytes.Buffer
	if err := serve.SaveBundle(&buf, net, splits.Enc); err != nil {
		b.Fatal(err)
	}
	bundle, err := serve.LoadBundle(bytes.NewReader(buf.Bytes()), backend.MustNew("parallel", 0))
	if err != nil {
		b.Fatal(err)
	}
	events := make([][]float64, splits.TestRaw.Len())
	for i := range events {
		events[i] = splits.TestRaw.X.Row(i)
	}

	b.Run("batch=1", func(b *testing.B) {
		one := make([][]float64, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			one[0] = events[i%len(events)]
			if _, _, err := bundle.Predict(one); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
	// wire=json vs wire=binary: the same 64-event batch through each codec
	// path end to end (decode → forward → encode) on a single-worker bundle,
	// so the gap is the protocol cost, not batching or parallelism. The JSON
	// leg is what handlePredict does per request; the binary leg is the
	// pooled predictWire hot path, which must stay allocation-free in steady
	// state (the allocs/op column is gated in perf/baseline_serve.json).
	serial, err := serve.LoadBundle(bytes.NewReader(buf.Bytes()), backend.MustNew("parallel", 1))
	if err != nil {
		b.Fatal(err)
	}
	const wireBatch = 64
	b.Run("wire=json", func(b *testing.B) {
		body, err := json.Marshal(serve.PredictRequest{Events: events[:wireBatch]})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var req serve.PredictRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
			pred, score, err := serial.Predict(req.Events)
			if err != nil {
				b.Fatal(err)
			}
			resp := serve.PredictResponse{Predictions: make([]serve.Prediction, len(pred))}
			for j := range pred {
				resp.Predictions[j] = serve.Prediction{Class: pred[j], SignalScore: score[j]}
			}
			if _, err := json.Marshal(resp); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(wireBatch)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
	b.Run("wire=binary", func(b *testing.B) {
		frame, err := wire.AppendRequest(nil, events[:wireBatch], false)
		if err != nil {
			b.Fatal(err)
		}
		var sc serve.Scratch
		pred := make([]int, wireBatch)
		score := make([]float64, wireBatch)
		threshold := serial.Net.Threshold()
		var out []byte
		run := func() {
			req, err := wire.DecodeRequest(frame)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := serial.PredictPooled(req.Rows, pred, score, &sc); err != nil {
				b.Fatal(err)
			}
			req.Release()
			out, err = wire.AppendResponse(out[:0], pred, score, threshold, 1)
			if err != nil {
				b.Fatal(err)
			}
		}
		run() // warm the pools and scratch outside the timer
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
		b.ReportMetric(float64(wireBatch)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
	b.Run("coalesced", func(b *testing.B) {
		batcher := serve.NewBatcher(func(_ int, evs [][]float64) ([]int, []float64, error) {
			return bundle.Predict(evs)
		}, serve.BatcherConfig{MaxBatch: 64, MaxWait: 500 * time.Microsecond, Workers: 1})
		defer batcher.Close()
		ctx := context.Background()
		b.SetParallelism(64) // many in-flight requests per core, like live traffic
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, _, err := batcher.Predict(ctx, events[i%len(events)]); err != nil {
					b.Error(err) // Fatal is not legal off the benchmark goroutine
					return
				}
				i++
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		b.ReportMetric(batcher.Stats().AvgBatch(), "avg-batch")
	})
}

// BenchmarkStreamIngest measures the continual-learning pipeline's
// steady-state ingest rate (DESIGN.md §7): events/s through encode →
// prequential predict → window metrics → PartialFit, after warmup/bootstrap
// has completed outside the timer. The companion to BenchmarkServePredict —
// together they bound the co-located learn-and-serve process.
func BenchmarkStreamIngest(b *testing.B) {
	const warm = 1024
	ds := higgs.Generate(warm+512, 0.5, 1)
	p := core.DefaultParams()
	p.MCUs = 300
	p.ReceptiveField = 0.40
	p.Seed = 1
	pipe, err := stream.New(stream.Config{
		Backend:      "parallel",
		Params:       p,
		Warmup:       warm,
		Window:       2048,
		PublishEvery: -1, // isolate the training path; publish cost is serve-side
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	ch := make(chan stream.Event) // unbuffered: sends complete only when ingested
	done := make(chan error, 1)
	go func() { done <- pipe.Run(context.Background(), stream.ChanSource(ch)) }()
	emit := func(i int) {
		row := i % ds.Len()
		ch <- stream.Event{Features: ds.X.Row(row), Label: ds.Y[row]}
	}
	for i := 0; i < warm; i++ {
		emit(i)
	}
	// The next send is only consumed once bootstrap training has finished,
	// so everything after it is steady state.
	emit(warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit(warm + 1 + i)
	}
	close(ch)
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
	st := pipe.Stats()
	b.ReportMetric(st.WindowAccuracy, "window-acc")
}

// BenchmarkQuantileEncode is ablation A6 (DESIGN.md §5.5): the §V
// preprocessing across bin counts.
func BenchmarkQuantileEncode(b *testing.B) {
	ds := higgs.Generate(8000, 0.5, 1)
	for _, bins := range []int{4, 10, 32} {
		b.Run(fmt.Sprintf("bins=%d", bins), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc := data.FitEncoder(ds, bins)
				_ = enc.Transform(ds)
			}
		})
	}
}

// BenchmarkHiggsGenerate times the synthetic event generator (events/sec
// matters for the large sweeps).
func BenchmarkHiggsGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		higgs.Generate(2000, 0.5, int64(i))
	}
	b.ReportMetric(float64(2000*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkMNISTRender times the procedural digit renderer.
func BenchmarkMNISTRender(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mnistgen.RenderDigit(i%10, rng)
	}
}

// BenchmarkGEMMPrecision is the E8 kernel pair (DESIGN.md §9): the same
// pinned GEMM at float64 and float32 on the parallel backend. The f32/f64
// GFLOP/s ratio is the measured reduced-precision speedup — with the
// AVX2+FMA microkernels active it tracks the 2× lane-width argument; in
// pure scalar builds it collapses to ~1×.
func BenchmarkGEMMPrecision(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 256
	b.Run("precision=f64", func(b *testing.B) {
		a, c, dst := tensor.NewMatrix(n, n), tensor.NewMatrix(n, n), tensor.NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.Float64()
			c.Data[i] = rng.Float64()
		}
		be := backend.MustNew("parallel", 0)
		b.SetBytes(int64(8 * n * n))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			be.MatMul(dst, a, c)
		}
		flops := 2 * float64(n) * float64(n) * float64(n)
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
	b.Run("precision=f32", func(b *testing.B) {
		a, c, dst := tensor.NewMatrix32(n, n), tensor.NewMatrix32(n, n), tensor.NewMatrix32(n, n)
		for i := range a.Data {
			a.Data[i] = float32(rng.Float64())
			c.Data[i] = float32(rng.Float64())
		}
		be := backend.MustNew32("parallel", 0)
		b.SetBytes(int64(4 * n * n))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			be.MatMul(dst, a, c)
		}
		flops := 2 * float64(n) * float64(n) * float64(n)
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
}

// BenchmarkForwardPrecision times the serving-side hidden forward pass at
// both precisions on a Higgs-shaped model (DESIGN.md §9): the float32 path
// is what a Precision=float32 bundle runs per prediction batch.
func BenchmarkForwardPrecision(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const (
		fi, mi = 28, 10
		units  = 300
		batch  = 64
	)
	idx := make([][]int32, batch)
	for s := range idx {
		for f := 0; f < fi; f++ {
			idx[s] = append(idx[s], int32(f*mi+rng.Intn(mi)))
		}
	}
	p := core.DefaultParams()
	p.MCUs = units
	p.UnsupervisedEpochs = 0
	p.SupervisedEpochs = 0
	for _, prec := range []core.Precision{core.Float64, core.Float32} {
		pv := p
		pv.Precision = prec
		layer := core.NewHiddenLayer(backend.MustNew("parallel", 0), fi, mi, pv,
			rand.New(rand.NewSource(3)))
		out := tensor.NewMatrix(batch, layer.Units())
		b.Run("precision="+prec.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				layer.Forward(idx, out)
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
