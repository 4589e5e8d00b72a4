package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// The tables below are the benchmark's contract: BENCHMARK.json at the repo
// root is generated from them (`go run ./benchmark -spec`), the smoke test
// asserts the two agree, and every run must emit exactly these names.

// refSeconds is the --seconds value at which workloads run the event and
// request counts their definitions state; other values scale those counts
// linearly and never touch a geometry, because geometry decides which layer
// dominates.
const refSeconds = 18

// runSeconds is what BENCHMARK.json asks the driver to pass: the stated sizes
// scaled by 12/18 so that 114 runs with their set-up fit the driver's cap.
const runSeconds = 12

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var workloadSpecs = []workloadSpec{
	{"train-dense", "paper pipeline at 1x3000 MCUs on the library-default backend: dense f64 composed kernels, MI-swap plasticity and the BCPNN readout do the work; mpi, serve and stream do none"},
	{"train-sparse", "same data through fused f32 kernels, block-sparse gather, prune/regrow to 80% sparsity, 4 HCUs and the SGD readout: a dense/f64 gain must not show here, a fused/f32/sparse gain must"},
	{"train-dist", "train-dense through 2 tcp ranks merging traces every step: the only workload where mpi collectives carry real bytes (6.7 MB of Cij per allreduce)"},
	{"stream-ingest", "writes beside reads on one model: 32-row PartialFit steps, prequential window, bundle publish and registry hot-swap, with a reader scoring 16-event batches across the swaps"},
	{"serve-fleet", "client, router, replica, batcher, forward and back at a 1x100 model: 2 closed-loop callers, 64-event binary frames, so wire, batcher and router hop costs show beside the forward pass"},
}

// End-to-end metrics: every workload reports every one of them from its
// untraced run. What each name measures on each workload is tabulated in
// README.md.
//
// The bounds are wide because the reference machine is: its memory-bound
// speed moves by 40% between a quiet and a disturbed neighbour, in bursts
// whose share of the time drifts from run to run (README.md, "Spread").
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"pipeline_wall_s", "s", "lower", 0.25},
	{"train_events_per_s", "events/s", "higher", 0.25},
	{"predict_events_per_s", "events/s", "higher", 0.25},
	{"predict_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// Per-layer metrics: reported by the traced run. A metric reads 0 on a
// workload in which its layer is not called.
var perLayerSpecs = []metricSpec{
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
	{Name: "test_auc", Unit: "ratio", Better: "higher"},
	{Name: "test_accuracy", Unit: "ratio", Better: "higher"},
	{Name: "predict_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "higgs.generate_s", Unit: "s", Better: "lower"},
	{Name: "data.balance_split_s", Unit: "s", Better: "lower"},
	{Name: "data.encoder_fit_s", Unit: "s", Better: "lower"},
	{Name: "data.transform_s", Unit: "s", Better: "lower"},
	{Name: "data.transform_row_us", Unit: "us/event", Better: "lower"},
	{Name: "core.unsup_s", Unit: "s", Better: "lower"},
	{Name: "core.sup_s", Unit: "s", Better: "lower"},
	{Name: "core.calibrate_s", Unit: "s", Better: "lower"},
	{Name: "core.eval_s", Unit: "s", Better: "lower"},
	{Name: "core.unsup_epoch_first_s", Unit: "s", Better: "lower"},
	{Name: "core.unsup_epoch_last_s", Unit: "s", Better: "lower"},
	{Name: "core.hidden.step_ms", Unit: "ms", Better: "lower"},
	{Name: "core.hidden.noise_ms", Unit: "ms", Better: "lower"},
	{Name: "core.hidden.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "core.hidden.update_ms", Unit: "ms", Better: "lower"},
	{Name: "core.hidden.structural_ms", Unit: "ms", Better: "lower"},
	{Name: "core.readout.train_ms", Unit: "ms", Better: "lower"},
	{Name: "core.readout.scores_ms", Unit: "ms", Better: "lower"},
	{Name: "core.hidden.step_allocs", Unit: "allocs/step", Better: "lower"},
	{Name: "core.hidden.mask_density", Unit: "ratio", Better: "lower"},
	{Name: "core.hidden.step_flops_computed", Unit: "count", Better: "lower"},
	{Name: "core.hidden.step_bytes_computed", Unit: "count", Better: "lower"},
	{Name: "core.unsup_unattributed_s", Unit: "s", Better: "lower"},
	{Name: "core.sup_unattributed_s", Unit: "s", Better: "lower"},
	{Name: "backend.step_ms.naive.f64", Unit: "ms", Better: "lower"},
	{Name: "backend.step_ms.parallel.f64", Unit: "ms", Better: "lower"},
	{Name: "backend.step_ms.fused.f64", Unit: "ms", Better: "lower"},
	{Name: "backend.step_ms.parallel.f32", Unit: "ms", Better: "lower"},
	{Name: "backend.step_ms.fused.f32", Unit: "ms", Better: "lower"},
	{Name: "backend.gemm_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "machine.triad_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "mpi.allreduce_calls", Unit: "count", Better: "lower"},
	{Name: "mpi.sent_bytes", Unit: "B", Better: "lower"},
	{Name: "mpi.allreduce_s", Unit: "s", Better: "lower"},
	{Name: "mpi.straggler_gap_s", Unit: "s", Better: "lower"},
	{Name: "mpi.comm_share", Unit: "ratio", Better: "lower"},
	{Name: "mpi.allreduce_cij_ms", Unit: "ms", Better: "lower"},
	{Name: "mpi.world_setup_s", Unit: "s", Better: "lower"},
	{Name: "stream.bootstrap_s", Unit: "s", Better: "lower"},
	{Name: "stream.step_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.partial_fit_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.predict_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.publish_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.publishes", Unit: "count", Better: "lower"},
	{Name: "stream.structural_rounds", Unit: "count", Better: "lower"},
	{Name: "serve.bundle.save_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.bundle.load_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.bundle.bytes", Unit: "B", Better: "lower"},
	{Name: "wire.decode_us", Unit: "us/frame", Better: "lower"},
	{Name: "wire.encode_us", Unit: "us/frame", Better: "lower"},
	{Name: "serve.bundle.predict_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.avg_batch", Unit: "events", Better: "higher"},
	{Name: "serve.batcher.single_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.single_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.direct_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.hop_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.retries", Unit: "count", Better: "lower"},
	{Name: "serve.json_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.allocs_per_req", Unit: "allocs", Better: "lower"},
	{Name: "bench.generator_max_rps", Unit: "req/s", Better: "higher"},
	{Name: "bench.source_event_us", Unit: "us/event", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
}

// exactMetrics must repeat bit for bit between two runs with the same seed
// and --seconds, traced or not.
var exactMetrics = []string{
	"test_auc", "test_accuracy",
	"core.hidden.mask_density", "core.hidden.step_flops_computed", "core.hidden.step_bytes_computed",
	"mpi.allreduce_calls", "mpi.sent_bytes",
	"stream.publishes", "stream.structural_rounds", "serve.bundle.bytes",
}

// benchmarkJSON renders BENCHMARK.json. Per-layer entries carry no bound, so
// they are written through a narrower struct than the end-to-end ones.
func benchmarkJSON() string {
	type layerSpec struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]layerSpec, len(perLayerSpecs))
	for i, m := range perLayerSpecs {
		layers[i] = layerSpec{m.Name, m.Unit, m.Better}
	}
	line := func(v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			panic(err) // the tables above hold only strings and numbers
		}
		return string(raw)
	}
	rows := func(n int, at func(int) any) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = "    " + line(at(i))
		}
		return "[\n" + strings.Join(parts, ",\n") + "\n  ]"
	}
	return fmt.Sprintf("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": %d,\n  \"workloads\": %s,\n  \"end_to_end\": %s,\n  \"per_layer\": %s\n}\n",
		runSeconds,
		rows(len(workloadSpecs), func(i int) any { return workloadSpecs[i] }),
		rows(len(endToEndSpecs), func(i int) any { return endToEndSpecs[i] }),
		rows(len(layers), func(i int) any { return layers[i] }))
}
