package perf

import (
	"fmt"
	"sort"
	"time"
)

// Kind names a scenario's execution shape.
type Kind string

const (
	// KindKernel times a single backend kernel or training step, one
	// serial call per operation.
	KindKernel Kind = "kernel"
	// KindServeClosed drives serve.Server over HTTP closed-loop: a fixed
	// set of workers each keeps exactly one request in flight.
	KindServeClosed Kind = "serve-closed"
	// KindServeOpen drives serve.Server over HTTP open-loop: requests are
	// dispatched on a fixed schedule at TargetRPS regardless of
	// completions, so queueing delay shows up in the percentiles.
	KindServeOpen Kind = "serve-open"
	// KindStream measures the stream pipeline's steady-state ingest rate
	// after warmup/bootstrap, one event per operation.
	KindStream Kind = "stream"
	// KindAllreduce times the distributed fabric's headline collective
	// (AllreduceMean) over an in-process world of Ranks ranks on the chosen
	// Transport, one collective per operation — the payload/rank sweep
	// behind BENCH_scaling.json (DESIGN.md §10).
	KindAllreduce Kind = "allreduce"
	// KindTrainScale measures end-to-end distributed BCPNN training
	// throughput (events/s across all ranks, one unsupervised plus one
	// supervised epoch per pass) over core.DistributedTrainer on the chosen
	// Transport.
	KindTrainScale Kind = "trainscale"
	// KindFleetClosed drives a streambrain-router front door over Replicas
	// in-process serve replicas closed-loop — the horizontal-scaling sweep
	// behind BENCH_fleet.json (DESIGN.md §13).
	KindFleetClosed Kind = "fleet-closed"
	// KindFleetOpen is the open-loop twin: fixed-schedule dispatch at
	// TargetRPS through the router, so fan-out queueing shows in p99.
	KindFleetOpen Kind = "fleet-open"
)

// Scenario is one declarative perf measurement. Which fields matter depends
// on Kind; Validate enforces the combination. Iteration counts are pinned
// (never time-based) so a suite does identical work on every machine and
// CI run — the property that makes BENCH_*.json files diffable.
type Scenario struct {
	// Name uniquely identifies the scenario inside its suite; benchgate
	// matches baseline and current results by it.
	Name string `json:"name"`
	Kind Kind   `json:"kind"`

	// Kernel scenarios: Op is "gemm" (MatMul at Size×Size), "trace" (the
	// fused OneHotOuterLerp batch trace update), or "trainstep" (one full
	// unsupervised BCPNN batch step). Backend names the compute backend;
	// Iters is the pinned operation count.
	Op      string `json:"op,omitempty"`
	Backend string `json:"backend,omitempty"`
	Size    int    `json:"size,omitempty"`
	Iters   int    `json:"iters,omitempty"`

	// Precision selects the kernel element width for kernel scenarios:
	// "" or "f64" runs the float64 kernel set, "f32" the float32 one.
	// An explicit value ("f64"/"f32") runs the backend-level synthetic
	// kernel sequence for gemm/trace/trainstep, so the two precisions of a
	// scenario pair do identical work and their throughput ratio isolates
	// the element width — the paper's reduced-precision claim as a number.
	// ("" keeps the legacy core-driven trainstep for baseline continuity.)
	Precision string `json:"precision,omitempty"`

	// Sparsity gives a trainstep scenario a receptive-field mask silencing
	// this fraction of input hypercolumns per HCU (K = round((1−s)·Fi)
	// active), the state the structural prune/regrow schedule (DESIGN.md
	// §15) leaves behind. Sparse then selects the compute regime over that
	// mask: false runs the dense-masked step (the joint trace decays every
	// block — HiddenLayer with SparseCompute off), true the block-sparse one
	// (silent trace blocks frozen too). Both gather and refresh weights over
	// the active blocks only. A dense/sparse
	// scenario pair shares one mask and model shape, so its within-run
	// throughput ratio IS the measured structural-sparsity speedup, declared
	// as a Ratio of the "sparse" suite.
	Sparsity float64 `json:"sparsity,omitempty"`
	Sparse   bool    `json:"sparse,omitempty"`

	// Serve scenarios: Concurrency workers (closed loop), Requests total
	// HTTP requests, BatchSize events per request, TargetRPS the open-loop
	// dispatch rate. Wire selects the predict codec: "" or "json" posts
	// JSON bodies, "binary" posts length-prefixed wire frames
	// (Content-Type application/x-streambrain-frame, DESIGN.md §12) — the
	// json/binary twin scenarios in the "serve" suite measure the protocol
	// gap under identical load.
	Concurrency int     `json:"concurrency,omitempty"`
	BatchSize   int     `json:"batch_size,omitempty"`
	Requests    int     `json:"requests,omitempty"`
	TargetRPS   float64 `json:"target_rps,omitempty"`
	Wire        string  `json:"wire,omitempty"`

	// Stream scenarios: Warmup events buffered for bootstrap, then Events
	// steady-state events measured.
	Events int `json:"events,omitempty"`
	Warmup int `json:"warmup,omitempty"`

	// MCUs sizes the model for trainstep/serve/stream scenarios
	// (default 100). Small models keep smoke suites inside CI budgets.
	MCUs int `json:"mcus,omitempty"`

	// Scaling scenarios (allreduce, trainscale): Ranks is the world size and
	// Transport the fabric ("chan" or "tcp" — goroutine ranks either way,
	// but tcp pays the real loopback socket, frame codec, and demux costs).
	// Floats is the allreduce payload length; trainscale reuses Events for
	// the dataset size and MCUs for the model.
	Ranks     int    `json:"ranks,omitempty"`
	Transport string `json:"transport,omitempty"`
	Floats    int    `json:"floats,omitempty"`

	// Fleet scenarios (fleet-closed, fleet-open): Replicas is the number of
	// serve replicas behind the router; KillOne hard-kills one replica
	// halfway through the request count (single measurement pass — the dead
	// replica cannot be resurrected between passes) to measure the client-
	// visible cost of a mid-run replica death.
	Replicas int  `json:"replicas,omitempty"`
	KillOne  bool `json:"kill_one,omitempty"`
}

// Validate reports the first malformed field for the scenario's kind.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("perf: scenario with empty name")
	}
	switch s.Kind {
	case KindKernel:
		switch s.Op {
		case "gemm":
			if s.Size <= 0 {
				return fmt.Errorf("perf: %s: gemm needs Size > 0", s.Name)
			}
		case "trace", "trainstep":
		default:
			return fmt.Errorf("perf: %s: unknown kernel op %q", s.Name, s.Op)
		}
		if s.Backend == "" {
			return fmt.Errorf("perf: %s: kernel needs a backend", s.Name)
		}
		if s.Iters <= 0 {
			return fmt.Errorf("perf: %s: kernel needs Iters > 0", s.Name)
		}
		switch s.Precision {
		case "", "f64", "f32":
		default:
			return fmt.Errorf("perf: %s: unknown precision %q (want f64 or f32)", s.Name, s.Precision)
		}
		if s.Sparsity < 0 || s.Sparsity >= 1 {
			return fmt.Errorf("perf: %s: Sparsity = %v, need [0,1)", s.Name, s.Sparsity)
		}
		if (s.Sparsity > 0 || s.Sparse) && s.Op != "trainstep" {
			return fmt.Errorf("perf: %s: sparsity only applies to the trainstep op", s.Name)
		}
		if (s.Sparsity > 0 || s.Sparse) && s.Precision == "" {
			return fmt.Errorf("perf: %s: sparse trainstep needs an explicit precision "+
				"(the legacy core-driven trainstep has no mask fixture)", s.Name)
		}
	case KindServeClosed:
		if s.Concurrency <= 0 || s.Requests <= 0 {
			return fmt.Errorf("perf: %s: closed loop needs Concurrency and Requests > 0", s.Name)
		}
		if err := validWire(s.Name, s.Wire); err != nil {
			return err
		}
	case KindServeOpen:
		if s.TargetRPS <= 0 || s.Requests <= 0 {
			return fmt.Errorf("perf: %s: open loop needs TargetRPS and Requests > 0", s.Name)
		}
		if err := validWire(s.Name, s.Wire); err != nil {
			return err
		}
	case KindStream:
		if s.Events <= 0 {
			return fmt.Errorf("perf: %s: stream needs Events > 0", s.Name)
		}
	case KindAllreduce:
		if s.Ranks < 1 {
			return fmt.Errorf("perf: %s: allreduce needs Ranks >= 1", s.Name)
		}
		if s.Floats <= 0 || s.Iters <= 0 {
			return fmt.Errorf("perf: %s: allreduce needs Floats and Iters > 0", s.Name)
		}
		if err := validTransport(s.Name, s.Transport); err != nil {
			return err
		}
	case KindTrainScale:
		if s.Ranks < 1 {
			return fmt.Errorf("perf: %s: trainscale needs Ranks >= 1", s.Name)
		}
		if s.Events <= 0 {
			return fmt.Errorf("perf: %s: trainscale needs Events > 0", s.Name)
		}
		if err := validTransport(s.Name, s.Transport); err != nil {
			return err
		}
	case KindFleetClosed, KindFleetOpen:
		if s.Replicas < 1 {
			return fmt.Errorf("perf: %s: fleet needs Replicas >= 1", s.Name)
		}
		if s.Kind == KindFleetClosed && (s.Concurrency <= 0 || s.Requests <= 0) {
			return fmt.Errorf("perf: %s: closed loop needs Concurrency and Requests > 0", s.Name)
		}
		if s.Kind == KindFleetOpen && (s.TargetRPS <= 0 || s.Requests <= 0) {
			return fmt.Errorf("perf: %s: open loop needs TargetRPS and Requests > 0", s.Name)
		}
		if s.KillOne && s.Replicas < 2 {
			return fmt.Errorf("perf: %s: kill-one needs Replicas >= 2 (someone has to survive)", s.Name)
		}
		if err := validWire(s.Name, s.Wire); err != nil {
			return err
		}
	default:
		return fmt.Errorf("perf: %s: unknown kind %q", s.Name, s.Kind)
	}
	return nil
}

// validWire rejects predict codecs the serve runner does not know.
func validWire(name, wire string) error {
	switch wire {
	case "", "json", "binary":
		return nil
	}
	return fmt.Errorf("perf: %s: unknown wire %q (want json or binary)", name, wire)
}

// validTransport rejects fabrics the scaling runners do not know.
func validTransport(name, transport string) error {
	switch transport {
	case "chan", "tcp":
		return nil
	}
	return fmt.Errorf("perf: %s: unknown transport %q (want chan or tcp)", name, transport)
}

// interval returns the open-loop dispatch period.
func (s Scenario) interval() time.Duration {
	return time.Duration(float64(time.Second) / s.TargetRPS)
}

// Ratio is a throughput ratio within one report: scenario Num's throughput
// over scenario Den's. Both sides ran on the same machine in the same run,
// so a ratio is its own baseline, and benchgate checks it on every
// environment. Floor is the least ratio that passes; 0 makes the ratio
// informational (reported, never failing).
type Ratio struct {
	Num, Den string
	Floor    float64
}

// suite is one built-in suite: its scenarios and the within-run ratios
// declared over them.
type suite struct {
	scenarios []Scenario
	ratios    []Ratio
}

// Suites returns the sorted names of the built-in suites.
func Suites() []string {
	names := make([]string, 0, len(suites))
	for n := range suites {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SuiteByName resolves a built-in suite and validates every scenario in it
// and every ratio declared over them.
func SuiteByName(name string) ([]Scenario, error) {
	st, ok := suites[name]
	if !ok {
		return nil, fmt.Errorf("perf: unknown suite %q (have %v)", name, Suites())
	}
	seen := map[string]bool{}
	for _, sc := range st.scenarios {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		if seen[sc.Name] {
			return nil, fmt.Errorf("perf: suite %s: duplicate scenario %q", name, sc.Name)
		}
		seen[sc.Name] = true
	}
	for _, r := range st.ratios {
		if !seen[r.Num] || !seen[r.Den] || r.Floor < 0 {
			return nil, fmt.Errorf("perf: suite %s: ratio %s / %s needs both scenarios "+
				"in the suite and Floor >= 0", name, r.Num, r.Den)
		}
	}
	return st.scenarios, nil
}

// SuiteRatios returns the within-run ratios declared for a suite; none for
// a suite that declares none or is not built in.
func SuiteRatios(name string) []Ratio { return suites[name].ratios }

// suites are the built-in suites. "smoke" is sized for a CI gate (<3 min on
// one runner core, pinned iteration counts); "full" is the same coverage at
// measurement scale for local baselining of real optimization work.
var suites = map[string]suite{
	"smoke": {scenarios: []Scenario{
		{Name: "gemm/naive/128", Kind: KindKernel, Op: "gemm", Backend: "naive", Size: 128, Iters: 30},
		{Name: "gemm/parallel/256", Kind: KindKernel, Op: "gemm", Backend: "parallel", Size: 256, Iters: 30},
		{Name: "gemm/gpusim/256", Kind: KindKernel, Op: "gemm", Backend: "gpusim", Size: 256, Iters: 30},
		{Name: "trace/naive", Kind: KindKernel, Op: "trace", Backend: "naive", Iters: 40},
		{Name: "trace/parallel", Kind: KindKernel, Op: "trace", Backend: "parallel", Iters: 40},
		{Name: "trainstep/parallel", Kind: KindKernel, Op: "trainstep", Backend: "parallel", Iters: 40, MCUs: 200},
		// Reduced-precision twins of the hot kernels, so the CI gate
		// (tools/benchgate) protects the float32 path too.
		{Name: "gemm/parallel/256/f32", Kind: KindKernel, Op: "gemm", Backend: "parallel", Size: 256, Iters: 30, Precision: "f32"},
		{Name: "trainstep/parallel/f32", Kind: KindKernel, Op: "trainstep", Backend: "parallel", Iters: 40, MCUs: 200, Precision: "f32"},
		{Name: "serve/closed/c8b4", Kind: KindServeClosed, Concurrency: 8, BatchSize: 4, Requests: 400, MCUs: 50},
		{Name: "serve/open/200rps", Kind: KindServeOpen, TargetRPS: 200, BatchSize: 1, Requests: 400, MCUs: 50},
		// Events sized so one measurement pass spans a few hundred ms:
		// a span a single GC cycle or scheduler preemption cannot move
		// by the gate's 15% threshold.
		{Name: "stream/steady", Kind: KindStream, Warmup: 512, Events: 24576, MCUs: 50},
	}},
	"full": {scenarios: []Scenario{
		{Name: "gemm/naive/128", Kind: KindKernel, Op: "gemm", Backend: "naive", Size: 128, Iters: 30},
		{Name: "gemm/parallel/512", Kind: KindKernel, Op: "gemm", Backend: "parallel", Size: 512, Iters: 20},
		{Name: "gemm/gpusim/512", Kind: KindKernel, Op: "gemm", Backend: "gpusim", Size: 512, Iters: 20},
		{Name: "trace/naive", Kind: KindKernel, Op: "trace", Backend: "naive", Iters: 50},
		{Name: "trace/parallel", Kind: KindKernel, Op: "trace", Backend: "parallel", Iters: 50},
		{Name: "trainstep/parallel", Kind: KindKernel, Op: "trainstep", Backend: "parallel", Iters: 30, MCUs: 1000},
		{Name: "trainstep/gpusim", Kind: KindKernel, Op: "trainstep", Backend: "gpusim", Iters: 30, MCUs: 1000},
		{Name: "serve/closed/c32b8", Kind: KindServeClosed, Concurrency: 32, BatchSize: 8, Requests: 4000, MCUs: 300},
		{Name: "serve/open/1000rps", Kind: KindServeOpen, TargetRPS: 1000, BatchSize: 1, Requests: 5000, MCUs: 300},
		{Name: "stream/steady", Kind: KindStream, Warmup: 2048, Events: 8192, MCUs: 300},
	}},
	// "kernels" is the precision sweep behind BENCH_kernels.json: every hot
	// kernel at f64 and f32 with identical pinned work, per backend. The
	// f32/f64 throughput ratio of a pair is the measured reduced-precision
	// speedup (the paper's bfloat16/posit argument in CI-runnable form).
	"kernels": {scenarios: []Scenario{
		{Name: "gemm/naive/256/f64", Kind: KindKernel, Op: "gemm", Backend: "naive", Size: 256, Iters: 20, Precision: "f64"},
		{Name: "gemm/naive/256/f32", Kind: KindKernel, Op: "gemm", Backend: "naive", Size: 256, Iters: 20, Precision: "f32"},
		{Name: "gemm/parallel/256/f64", Kind: KindKernel, Op: "gemm", Backend: "parallel", Size: 256, Iters: 30, Precision: "f64"},
		{Name: "gemm/parallel/256/f32", Kind: KindKernel, Op: "gemm", Backend: "parallel", Size: 256, Iters: 30, Precision: "f32"},
		{Name: "gemm/parallel/512/f64", Kind: KindKernel, Op: "gemm", Backend: "parallel", Size: 512, Iters: 10, Precision: "f64"},
		{Name: "gemm/parallel/512/f32", Kind: KindKernel, Op: "gemm", Backend: "parallel", Size: 512, Iters: 10, Precision: "f32"},
		{Name: "gemm/gpusim/256/f64", Kind: KindKernel, Op: "gemm", Backend: "gpusim", Size: 256, Iters: 20, Precision: "f64"},
		{Name: "gemm/gpusim/256/f32", Kind: KindKernel, Op: "gemm", Backend: "gpusim", Size: 256, Iters: 20, Precision: "f32"},
		{Name: "trace/parallel/f64", Kind: KindKernel, Op: "trace", Backend: "parallel", Iters: 40, Precision: "f64"},
		{Name: "trace/parallel/f32", Kind: KindKernel, Op: "trace", Backend: "parallel", Iters: 40, Precision: "f32"},
		{Name: "trainstep/parallel/f64", Kind: KindKernel, Op: "trainstep", Backend: "parallel", Iters: 30, MCUs: 200, Precision: "f64"},
		{Name: "trainstep/parallel/f32", Kind: KindKernel, Op: "trainstep", Backend: "parallel", Iters: 30, MCUs: 200, Precision: "f32"},
		// Whole-layer offload twins (DESIGN.md §14): same pinned work through
		// the fused backend. gemm/trace exercise its composed kernels (they
		// are the parallel worker team); trainstep runs the one-call
		// LayerStep, and the fused/parallel trainstep ratio is the fusion
		// speedup, declared among the suite's ratios below.
		{Name: "gemm/fused/256/f64", Kind: KindKernel, Op: "gemm", Backend: "fused", Size: 256, Iters: 30, Precision: "f64"},
		{Name: "gemm/fused/256/f32", Kind: KindKernel, Op: "gemm", Backend: "fused", Size: 256, Iters: 30, Precision: "f32"},
		{Name: "trace/fused/f64", Kind: KindKernel, Op: "trace", Backend: "fused", Iters: 40, Precision: "f64"},
		{Name: "trace/fused/f32", Kind: KindKernel, Op: "trace", Backend: "fused", Iters: 40, Precision: "f32"},
		{Name: "trainstep/fused/f64", Kind: KindKernel, Op: "trainstep", Backend: "fused", Iters: 30, MCUs: 200, Precision: "f64"},
		{Name: "trainstep/fused/f32", Kind: KindKernel, Op: "trainstep", Backend: "fused", Iters: 30, MCUs: 200, Precision: "f32"},
	}, ratios: []Ratio{
		// The fusion speedup is floored at f64, the precision LayerStep
		// carries the learning state at, where the blocked passes and the
		// vectorized log are the whole difference between the backends. The
		// f32 pair is informational: both sides already share the fast
		// Log32 kernels, so its ratio measures cache locality alone and a
		// floor on it would gate machine noise.
		{Num: "trainstep/fused/f64", Den: "trainstep/parallel/f64", Floor: 1.15},
		{Num: "trainstep/fused/f32", Den: "trainstep/parallel/f32"},
	}},
	// "sparse" is the structural-sparsity sweep behind BENCH_sparse.json
	// (DESIGN.md §15): trainstep twin pairs sharing one pruned receptive-
	// field mask, run dense-masked (the joint trace decays every block, as
	// HiddenLayer does with SparseCompute off) and block-sparse (silent
	// trace blocks skipped via the compressed index too). The sparse/dense
	// throughput ratio of a pair is the measured SparseCompute speedup; the suite's ratios floor the f64 pair at 80% sparsity, the
	// compute half of the E10 claim — the AUC
	// half is the experiment's own ±0.01 twin bound. The s50 and f32 pairs
	// are informational: at half sparsity the skipped fraction is too small
	// for the floor, and the f32 pair shares the fast Log32 kernels so its
	// ratio mostly measures cache footprint.
	"sparse": {scenarios: []Scenario{
		{Name: "trainstep/dense/f64/s80", Kind: KindKernel, Op: "trainstep", Backend: "parallel", Iters: 30, MCUs: 200, Precision: "f64", Sparsity: 0.8},
		{Name: "trainstep/sparse/f64/s80", Kind: KindKernel, Op: "trainstep", Backend: "parallel", Iters: 30, MCUs: 200, Precision: "f64", Sparsity: 0.8, Sparse: true},
		{Name: "trainstep/dense/f32/s80", Kind: KindKernel, Op: "trainstep", Backend: "parallel", Iters: 30, MCUs: 200, Precision: "f32", Sparsity: 0.8},
		{Name: "trainstep/sparse/f32/s80", Kind: KindKernel, Op: "trainstep", Backend: "parallel", Iters: 30, MCUs: 200, Precision: "f32", Sparsity: 0.8, Sparse: true},
		{Name: "trainstep/dense/f64/s50", Kind: KindKernel, Op: "trainstep", Backend: "parallel", Iters: 30, MCUs: 200, Precision: "f64", Sparsity: 0.5},
		{Name: "trainstep/sparse/f64/s50", Kind: KindKernel, Op: "trainstep", Backend: "parallel", Iters: 30, MCUs: 200, Precision: "f64", Sparsity: 0.5, Sparse: true},
	}, ratios: []Ratio{
		{Num: "trainstep/sparse/f32/s80", Den: "trainstep/dense/f32/s80"},
		{Num: "trainstep/sparse/f64/s50", Den: "trainstep/dense/f64/s50"},
		{Num: "trainstep/sparse/f64/s80", Den: "trainstep/dense/f64/s80", Floor: 1.5},
	}},
	// "serve" is the predict-protocol sweep behind BENCH_serve.json
	// (DESIGN.md §12): json/binary twin scenarios under identical closed-
	// and open-loop load, so the throughput and allocs/op gap between a
	// pair is the measured cost of the JSON codec path. benchgate diffs it
	// against perf/baseline_serve.json, with the allocs/op gate keeping the
	// pooled binary hot path allocation-free.
	"serve": {scenarios: []Scenario{
		{Name: "serve/json/closed/c8b16", Kind: KindServeClosed, Wire: "json", Concurrency: 8, BatchSize: 16, Requests: 600, MCUs: 100},
		{Name: "serve/binary/closed/c8b16", Kind: KindServeClosed, Wire: "binary", Concurrency: 8, BatchSize: 16, Requests: 600, MCUs: 100},
		{Name: "serve/json/open/300rps", Kind: KindServeOpen, Wire: "json", TargetRPS: 300, BatchSize: 4, Requests: 600, MCUs: 100},
		{Name: "serve/binary/open/300rps", Kind: KindServeOpen, Wire: "binary", TargetRPS: 300, BatchSize: 4, Requests: 600, MCUs: 100},
	}},
	// "scaling" is the distributed-fabric sweep behind BENCH_scaling.json
	// (DESIGN.md §10): the trace-merge collective across payload sizes and
	// rank counts on both transports, plus end-to-end data-parallel train
	// throughput at 1/2/4/8 ranks. The chan/tcp ratio of a scenario pair is
	// the measured cost of making the fabric transport-real; the rank sweep
	// is the weak-scaling story of the StreamBrain paper in CI-runnable
	// form. Payloads are sized around the headline trace merge
	// (280 inputs × MCUs floats).
	"scaling": {scenarios: []Scenario{
		{Name: "allreduce/chan/r4/4k", Kind: KindAllreduce, Transport: "chan", Ranks: 4, Floats: 4096, Iters: 200},
		{Name: "allreduce/tcp/r4/4k", Kind: KindAllreduce, Transport: "tcp", Ranks: 4, Floats: 4096, Iters: 200},
		{Name: "allreduce/chan/r4/64k", Kind: KindAllreduce, Transport: "chan", Ranks: 4, Floats: 65536, Iters: 60},
		{Name: "allreduce/tcp/r4/64k", Kind: KindAllreduce, Transport: "tcp", Ranks: 4, Floats: 65536, Iters: 60},
		{Name: "allreduce/chan/r4/512k", Kind: KindAllreduce, Transport: "chan", Ranks: 4, Floats: 524288, Iters: 15},
		{Name: "allreduce/tcp/r4/512k", Kind: KindAllreduce, Transport: "tcp", Ranks: 4, Floats: 524288, Iters: 15},
		{Name: "allreduce/chan/r2/64k", Kind: KindAllreduce, Transport: "chan", Ranks: 2, Floats: 65536, Iters: 60},
		{Name: "allreduce/tcp/r2/64k", Kind: KindAllreduce, Transport: "tcp", Ranks: 2, Floats: 65536, Iters: 60},
		{Name: "allreduce/chan/r8/64k", Kind: KindAllreduce, Transport: "chan", Ranks: 8, Floats: 65536, Iters: 60},
		{Name: "allreduce/tcp/r8/64k", Kind: KindAllreduce, Transport: "tcp", Ranks: 8, Floats: 65536, Iters: 60},
		{Name: "train/chan/r1", Kind: KindTrainScale, Transport: "chan", Ranks: 1, Events: 4096, MCUs: 50},
		{Name: "train/chan/r2", Kind: KindTrainScale, Transport: "chan", Ranks: 2, Events: 4096, MCUs: 50},
		{Name: "train/chan/r4", Kind: KindTrainScale, Transport: "chan", Ranks: 4, Events: 4096, MCUs: 50},
		{Name: "train/chan/r8", Kind: KindTrainScale, Transport: "chan", Ranks: 8, Events: 4096, MCUs: 50},
		{Name: "train/tcp/r1", Kind: KindTrainScale, Transport: "tcp", Ranks: 1, Events: 4096, MCUs: 50},
		{Name: "train/tcp/r2", Kind: KindTrainScale, Transport: "tcp", Ranks: 2, Events: 4096, MCUs: 50},
		{Name: "train/tcp/r4", Kind: KindTrainScale, Transport: "tcp", Ranks: 4, Events: 4096, MCUs: 50},
		{Name: "train/tcp/r8", Kind: KindTrainScale, Transport: "tcp", Ranks: 8, Events: 4096, MCUs: 50},
	}},
	// "fleet" is the horizontal-serving sweep behind BENCH_fleet.json
	// (DESIGN.md §13): the router front door over 1/2/4 replicas, closed and
	// open loop, plus a kill-one-replica run. The replica-count trio shares
	// one load shape, so the r2/r1 and r4/r1 throughput ratios ARE the
	// measured fan-out scaling; the kill-one scenario's error count is the
	// client-visible cost of a replica death (the retry path keeps it at
	// zero). The fixture pins one router connection per replica so each
	// replica's capacity is bounded by its batching window, not by CPU —
	// scaling then measures the fan-out tier, which is what this suite is
	// for, and stays honest on a single-core CI runner.
	"fleet": {scenarios: []Scenario{
		{Name: "fleet/binary/closed/r1", Kind: KindFleetClosed, Wire: "binary", Replicas: 1, Concurrency: 8, BatchSize: 16, Requests: 600, MCUs: 50},
		{Name: "fleet/binary/closed/r2", Kind: KindFleetClosed, Wire: "binary", Replicas: 2, Concurrency: 8, BatchSize: 16, Requests: 600, MCUs: 50},
		{Name: "fleet/binary/closed/r4", Kind: KindFleetClosed, Wire: "binary", Replicas: 4, Concurrency: 8, BatchSize: 16, Requests: 600, MCUs: 50},
		{Name: "fleet/json/closed/r2", Kind: KindFleetClosed, Wire: "json", Replicas: 2, Concurrency: 8, BatchSize: 16, Requests: 600, MCUs: 50},
		{Name: "fleet/binary/open/r2/300rps", Kind: KindFleetOpen, Wire: "binary", Replicas: 2, TargetRPS: 300, BatchSize: 4, Requests: 600, MCUs: 50},
		{Name: "fleet/binary/killone/r2", Kind: KindFleetClosed, Wire: "binary", Replicas: 2, Concurrency: 8, BatchSize: 16, Requests: 600, MCUs: 50, KillOne: true},
	}, ratios: []Ratio{
		// DESIGN.md §13's 2-replica bar, applied as a floor to the larger
		// fleet too. The json and kill-one scenarios have no one-replica
		// twin to scale against.
		{Num: "fleet/binary/closed/r2", Den: "fleet/binary/closed/r1", Floor: 1.7},
		{Num: "fleet/binary/closed/r4", Den: "fleet/binary/closed/r1", Floor: 1.7},
	}},
}
