package perf

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streambrain/internal/backend"
	"streambrain/internal/core"
	"streambrain/internal/data"
	"streambrain/internal/higgs"
	"streambrain/internal/obs"
	"streambrain/internal/perf/hist"
	"streambrain/internal/serve/wire"
	"streambrain/internal/stream"
	"streambrain/internal/tensor"
)

// Runner executes perf scenarios. The zero value is usable; set Logf to see
// per-scenario progress (cmd/streambrain-loadtest points it at stderr).
type Runner struct {
	Logf func(format string, args ...any)

	// WireOverride forces every serve scenario onto one predict codec
	// ("json" or "binary", the loadtest -wire flag); empty keeps each
	// scenario's declared Wire. Scenario names are unchanged, so an
	// overridden report is NOT baseline-comparable — it is for ad-hoc
	// protocol A/B runs, not re-baselining.
	WireOverride string
}

func (r *Runner) logf(format string, args ...any) {
	if r != nil && r.Logf != nil {
		r.Logf(format, args...)
	}
}

// RunSuite resolves a built-in suite by name and runs every scenario in
// declaration order, returning the stamped report.
func (r *Runner) RunSuite(name string) (Report, error) {
	scs, err := SuiteByName(name)
	if err != nil {
		return Report{}, err
	}
	rep := NewReport(name)
	for _, sc := range scs {
		res, err := r.RunScenario(sc)
		if err != nil {
			return rep, fmt.Errorf("perf: scenario %s: %w", sc.Name, err)
		}
		r.logf("%-24s %10.1f ops/s-equivalent  p99 %.3fms", res.Scenario, res.Throughput, res.P99Ms)
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}

// RunScenario validates and executes one scenario.
func (r *Runner) RunScenario(sc Scenario) (Result, error) {
	if r != nil && r.WireOverride != "" &&
		(sc.Kind == KindServeClosed || sc.Kind == KindServeOpen ||
			sc.Kind == KindFleetClosed || sc.Kind == KindFleetOpen) {
		sc.Wire = r.WireOverride
	}
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	r.logf("running %s (%s)...", sc.Name, sc.Kind)
	switch sc.Kind {
	case KindKernel:
		return r.runKernel(sc)
	case KindServeClosed, KindServeOpen:
		return r.runServe(sc)
	case KindStream:
		return r.runStream(sc)
	case KindAllreduce:
		return r.runAllreduce(sc)
	case KindTrainScale:
		return r.runTrainScale(sc)
	case KindFleetClosed, KindFleetOpen:
		return r.runFleet(sc)
	}
	return Result{}, fmt.Errorf("perf: unknown kind %q", sc.Kind)
}

// measurePasses is how many times the Runner repeats each scenario's
// measurement phase (setup and fixtures are reused across passes). The
// reported Result takes each metric's best pass — max throughput, min
// latency percentiles — the min-over-repetitions estimator that keeps
// one-off scheduler jitter out of committed baselines. Errors take the
// worst pass, so the reported error count stays comparable to Ops.
const measurePasses = 3

// bestOf folds per-pass results into the reported one.
func bestOf(passes []Result) Result {
	best := passes[0]
	for _, r := range passes[1:] {
		if r.Errors > best.Errors {
			best.Errors = r.Errors
		}
		if r.Throughput > best.Throughput {
			best.Throughput = r.Throughput
			best.WallSeconds = r.WallSeconds
		}
		best.P50Ms = math.Min(best.P50Ms, r.P50Ms)
		best.P95Ms = math.Min(best.P95Ms, r.P95Ms)
		best.P99Ms = math.Min(best.P99Ms, r.P99Ms)
		best.MaxMs = math.Min(best.MaxMs, r.MaxMs)
		best.AllocsPerOp = math.Min(best.AllocsPerOp, r.AllocsPerOp)
		best.BytesPerOp = math.Min(best.BytesPerOp, r.BytesPerOp)
	}
	return best
}

// memProbe snapshots the monotone heap counters so a run can report
// per-operation allocation deltas (the runtime.MemStats analogue of
// b.ReportAllocs, covering generator and measured path together).
type memProbe struct{ before runtime.MemStats }

func startProbe() *memProbe {
	p := &memProbe{}
	runtime.ReadMemStats(&p.before)
	return p
}

func (p *memProbe) perOp(ops uint64) (allocs, bytesPerOp float64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	if ops == 0 {
		return 0, 0
	}
	return float64(now.Mallocs-p.before.Mallocs) / float64(ops),
		float64(now.TotalAlloc-p.before.TotalAlloc) / float64(ops)
}

// fillLatency converts histogram quantiles into the Result's millisecond
// fields.
func fillLatency(res *Result, h *hist.Histogram) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	res.P50Ms = ms(h.Quantile(0.50))
	res.P95Ms = ms(h.Quantile(0.95))
	res.P99Ms = ms(h.Quantile(0.99))
	res.MaxMs = ms(h.Max())
}

// ------------------------------------------------------------------ kernels

// traceGeometry is the fixed geometry of the "trace" kernel op — the Fig-3
// one-hot outer-product trace update at a mid-size unit count. Pinned so
// the scenario does identical work everywhere.
const (
	traceBatch  = 128
	traceGroups = 28
	traceWidth  = 10
	traceUnits  = 2000
)

// buildKernelOp materializes the scenario's inputs and returns the
// operation closure; setup cost stays outside the measured loop.
//
// An empty Precision keeps the legacy float64 behaviors (core-driven
// trainstep included) so pre-existing baseline scenarios measure exactly
// what they always measured. An explicit "f64"/"f32" runs the backend-level
// kernel sequence from buildKernelOpAt, giving the two precisions of a
// sweep pair identical work.
func buildKernelOp(sc Scenario) (func(), error) {
	switch sc.Precision {
	case "f32":
		be, err := backend.New32(sc.Backend, 0)
		if err != nil {
			return nil, err
		}
		return buildKernelOpAt[float32](sc, be)
	case "f64":
		be, err := backend.New(sc.Backend, 0)
		if err != nil {
			return nil, err
		}
		return buildKernelOpAt[float64](sc, be)
	}
	be, err := backend.New(sc.Backend, 0)
	if err != nil {
		return nil, err
	}
	switch sc.Op {
	case "gemm", "trace":
		return buildKernelOpAt[float64](sc, be)
	case "trainstep":
		ds := higgs.Generate(1600, 0.5, 1)
		enc := data.FitEncoder(ds, 10)
		encoded := enc.Transform(ds)
		p := fixtureParams(sc.MCUs)
		p.ReceptiveField = 0.30
		rng := rand.New(rand.NewSource(p.Seed))
		layer := core.NewHiddenLayer(be, encoded.Hypercolumns, encoded.UnitsPerHC, p, rng)
		layer.InitTracesFromData(encoded.Idx[:1024])
		batch := encoded.Idx[:128]
		return func() { layer.TrainBatch(batch) }, nil
	}
	return nil, fmt.Errorf("perf: unknown kernel op %q", sc.Op)
}

// trainstepGeometry pins the synthetic trainstep's input side to the Higgs
// encoding shape (28 features × 10 quantile bins, batch 128).
const (
	trainstepFi    = 28
	trainstepMi    = 10
	trainstepBatch = 128
)

// buildKernelOpAt builds the precision-parameterized kernel closures. The
// "trainstep" op is one unsupervised BCPNN batch step as a backend LayerStep
// on synthetic state — forward pass, the three trace updates, and the
// parameter refresh — identical work at either element width, which is what
// makes the f32/f64 scenario pairs a controlled precision experiment.
func buildKernelOpAt[T tensor.Float](sc Scenario, be backend.Kernels[T]) (func(), error) {
	switch sc.Op {
	case "gemm":
		n := sc.Size
		rng := rand.New(rand.NewSource(1))
		a, b, dst := tensor.NewDense[T](n, n), tensor.NewDense[T](n, n), tensor.NewDense[T](n, n)
		for i := range a.Data {
			a.Data[i] = T(rng.Float64())
			b.Data[i] = T(rng.Float64())
		}
		return func() { be.MatMul(dst, a, b) }, nil
	case "trace":
		rng := rand.New(rand.NewSource(2))
		cij := tensor.NewDense[T](traceGroups*traceWidth, traceUnits)
		act := tensor.NewDense[T](traceBatch, traceUnits)
		for i := range act.Data {
			act.Data[i] = T(rng.Float64())
		}
		idx := make([][]int32, traceBatch)
		for s := range idx {
			for g := 0; g < traceGroups; g++ {
				idx[s] = append(idx[s], int32(g*traceWidth+rng.Intn(traceWidth)))
			}
		}
		return func() { be.OneHotOuterLerp(cij, idx, act, 0.01, nil) }, nil
	case "trainstep":
		rng := rand.New(rand.NewSource(3))
		mcus := sc.MCUs
		if mcus <= 0 {
			mcus = 100
		}
		in, units := trainstepFi*trainstepMi, mcus
		w := tensor.NewDense[T](in, units)
		cij := tensor.NewDense[T](in, units)
		ci := make([]T, in)
		cj := make([]T, units)
		bias := make([]T, units)
		kbi := make([]T, units)
		for i := range ci {
			ci[i] = T(rng.Float64()*0.05 + 0.01)
		}
		for j := range cj {
			cj[j] = T(rng.Float64()*0.05 + 0.01)
			kbi[j] = 1
		}
		for i := range cij.Data {
			cij.Data[i] = T(rng.Float64()*0.01 + 1e-4)
		}
		idx := make([][]int32, trainstepBatch)
		for s := range idx {
			for f := 0; f < trainstepFi; f++ {
				idx[s] = append(idx[s], int32(f*trainstepMi+rng.Intn(trainstepMi)))
			}
		}
		act := tensor.NewDense[T](trainstepBatch, units)
		const t = 0.012
		// Structural-sparsity fixture (DESIGN.md §15): a receptive-field index
		// silencing Sparsity of the input hypercolumns, the state the
		// prune/regrow schedule leaves behind. Both twins gather and refresh
		// weights over its active blocks; the sparse twin also freezes the
		// silent blocks of the joint trace, the dense twin decays every
		// block — the two regimes HiddenLayer runs with SparseCompute on and
		// off, so the pair's ratio measures what SparseCompute buys. Without
		// a fixture every block is active.
		blocks := trainstepBlocks(sc, rng, units)
		if blocks == nil {
			blocks = tensor.NewBlockIndex(nil, trainstepFi, trainstepMi, 1, units)
		}
		var trace *tensor.BlockIndex
		if sc.Sparse {
			trace = blocks
		}
		// Every backend runs the update as its LayerStep (DESIGN.md §14):
		// ComposedStep on naive and parallel, three passes on fused, so the
		// fused/parallel throughput ratio of a scenario pair is the measured
		// fusion speedup benchgate floors.
		hyper := backend.LayerHyper[T]{Taupdt: t, Temperature: 1, Eps: 1e-9, Kbi: kbi,
			Blocks: blocks, Trace: trace}
		return func() { be.LayerStep(idx, act, ci, cj, cij, w, bias, hyper) }, nil
	}
	return nil, fmt.Errorf("perf: unknown kernel op %q", sc.Op)
}

// trainstepBlocks builds the structural-sparsity fixture for a trainstep
// scenario: the block index of an Fi×1 receptive-field mask with
// K = round((1−Sparsity)·Fi) active input hypercolumns (never below 1). The
// active set is drawn from the scenario's pinned RNG, whose consumption up to
// this point is identical for every trainstep scenario — so the dense and
// sparse twins of one sparsity level share the exact same mask, which is what
// makes their throughput ratio a controlled experiment. Legacy scenarios with
// no sparsity configured get nil and keep their original behavior.
func trainstepBlocks(sc Scenario, rng *rand.Rand, units int) *tensor.BlockIndex {
	if sc.Sparsity == 0 && !sc.Sparse {
		return nil
	}
	k := int(math.Round((1 - sc.Sparsity) * trainstepFi))
	if k < 1 {
		k = 1
	}
	mask := make([]bool, trainstepFi)
	for _, f := range rng.Perm(trainstepFi)[:k] {
		mask[f] = true
	}
	return tensor.NewBlockIndex(mask, trainstepFi, trainstepMi, 1, units)
}

func (r *Runner) runKernel(sc Scenario) (Result, error) {
	op, err := buildKernelOp(sc)
	if err != nil {
		return Result{}, err
	}
	op() // one untimed warmup call: page in buffers, spin up worker teams
	passes := make([]Result, measurePasses)
	for pass := range passes {
		h := hist.New()
		probe := startProbe()
		start := time.Now()
		for i := 0; i < sc.Iters; i++ {
			t0 := time.Now()
			op()
			h.Record(time.Since(t0))
		}
		wall := time.Since(start)
		res := Result{
			Scenario:    sc.Name,
			Kind:        string(sc.Kind),
			Ops:         uint64(sc.Iters),
			WallSeconds: wall.Seconds(),
			Throughput:  float64(sc.Iters) / wall.Seconds(),
		}
		res.AllocsPerOp, res.BytesPerOp = probe.perOp(res.Ops)
		fillLatency(&res, h)
		passes[pass] = res
	}
	return bestOf(passes), nil
}

// -------------------------------------------------------------- serve load

func (r *Runner) runServe(sc Scenario) (Result, error) {
	fx, err := newServeFixture(sc.MCUs)
	if err != nil {
		return Result{}, err
	}
	defer fx.close()

	batch := sc.BatchSize
	if batch <= 0 {
		batch = 1
	}
	// Pre-encode a rotating pool of request bodies so the generator's own
	// codec work stays off the latency path. Wire selects the predict
	// protocol: JSON bodies or binary frames on the same endpoint (the
	// server negotiates by Content-Type).
	contentType := "application/json"
	encode := func(events [][]float64) ([]byte, error) {
		return json.Marshal(map[string]any{"events": events})
	}
	if sc.Wire == "binary" {
		contentType = wire.ContentType
		encode = func(events [][]float64) ([]byte, error) {
			return wire.AppendRequest(nil, events, false)
		}
	}
	const bodyPool = 64
	bodies := make([][]byte, bodyPool)
	for i := range bodies {
		events := make([][]float64, batch)
		for j := range events {
			events[j] = fx.events[(i*batch+j)%len(fx.events)]
		}
		raw, err := encode(events)
		if err != nil {
			return Result{}, fmt.Errorf("perf: encode request: %w", err)
		}
		bodies[i] = raw
	}
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
		},
	}
	passes := make([]Result, measurePasses)
	for pass := range passes {
		h := hist.New()
		var errs atomic.Uint64
		doRequest := func(i int) {
			t0 := time.Now()
			resp, err := client.Post(fx.url+"/v1/predict", contentType,
				bytes.NewReader(bodies[i%bodyPool]))
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			h.Record(time.Since(t0))
			if err != nil {
				errs.Add(1)
			}
		}

		probe := startProbe()
		start := time.Now()
		switch sc.Kind {
		case KindServeClosed:
			// Closed loop: Concurrency workers, each with exactly one
			// request in flight — measures capacity at a fixed offered
			// concurrency.
			var next atomic.Int64
			var wg sync.WaitGroup
			wg.Add(sc.Concurrency)
			for w := 0; w < sc.Concurrency; w++ {
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(sc.Requests) {
							return
						}
						doRequest(int(i))
					}
				}()
			}
			wg.Wait()
		case KindServeOpen:
			// Open loop: dispatch on an absolute schedule (not a Ticker,
			// which coalesces missed ticks and would silently throttle the
			// generator when it falls behind) whether or not earlier
			// requests finished, so saturation shows up as queueing in
			// p99 instead of a lowered offered rate.
			interval := sc.interval()
			sched := time.Now()
			var wg sync.WaitGroup
			for i := 0; i < sc.Requests; i++ {
				if d := time.Until(sched.Add(time.Duration(i) * interval)); d > 0 {
					time.Sleep(d)
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					doRequest(i)
				}(i)
			}
			wg.Wait()
		}
		wall := time.Since(start)

		res := Result{
			Scenario:    sc.Name,
			Kind:        string(sc.Kind),
			Ops:         uint64(sc.Requests),
			Errors:      errs.Load(),
			WallSeconds: wall.Seconds(),
			// Headline rate is events/s: requests carry batch events each.
			Throughput: float64(sc.Requests*batch) / wall.Seconds(),
		}
		res.AllocsPerOp, res.BytesPerOp = probe.perOp(res.Ops)
		fillLatency(&res, h)
		passes[pass] = res
	}
	res := bestOf(passes)
	if err := scrapeServeMetrics(client, fx.url, &res); err != nil {
		// Telemetry is a bonus column, not the measurement — log and move on.
		r.logf("%s: /metrics scrape failed: %v", sc.Name, err)
	}
	if res.Errors > 0 {
		r.logf("%s: %d requests failed", sc.Name, res.Errors)
	}
	return res, nil
}

// scrapeServeMetrics fills the Result's Server* fields from the fixture
// server's own /metrics exposition: the batcher-observed average batch size,
// residual queue depth, and server-side queue-wait/forward p99s. These are
// lifetime-of-fixture numbers (all passes hit one server), which is exactly
// the regime bestOf summarizes.
func scrapeServeMetrics(client *http.Client, url string, res *Result) error {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	exp, err := obs.ParseText(resp.Body)
	if err != nil {
		return err
	}
	sum, okSum := exp.Value("streambrain_serve_batch_size_sum", nil)
	count, okCount := exp.Value("streambrain_serve_batch_size_count", nil)
	if okSum && okCount && count > 0 {
		res.ServerAvgBatch = sum / count
	}
	if depth, ok := exp.Value("streambrain_serve_queue_depth", nil); ok {
		res.ServerQueueDepth = depth
	}
	if q, ok := exp.HistQuantile("streambrain_serve_queue_wait_seconds", 0.99); ok {
		res.ServerQueueP99Ms = q * 1e3
	}
	if q, ok := exp.HistQuantile("streambrain_serve_forward_seconds", 0.99); ok {
		res.ServerForwardP99Ms = q * 1e3
	}
	return nil
}

// ------------------------------------------------------------ stream ingest

func (r *Runner) runStream(sc Scenario) (Result, error) {
	warmup := sc.Warmup
	if warmup <= 0 {
		warmup = 512
	}
	p := fixtureParams(sc.MCUs)
	pipe, err := stream.New(stream.Config{
		Backend:      "parallel",
		Params:       p,
		Warmup:       warmup,
		Window:       1024,
		PublishEvery: -1, // isolate the ingest path; publish cost is serve-side
	}, nil)
	if err != nil {
		return Result{}, err
	}
	ds := higgs.Generate(warmup+512, 0.5, 1)
	ch := make(chan stream.Event) // unbuffered: a send completes only when ingested
	done := make(chan error, 1)
	go func() { done <- pipe.Run(context.Background(), stream.ChanSource(ch)) }()
	// emit must select against done: if the pipeline exits early (e.g. a
	// refit error), nothing reads ch anymore and a bare send would hang
	// the load generator — and the CI job — forever.
	var runErr error
	emit := func(i int) bool {
		row := i % ds.Len()
		select {
		case ch <- stream.Event{Features: ds.X.Row(row), Label: ds.Y[row]}:
			return true
		case err := <-done:
			if err == nil {
				err = fmt.Errorf("stream pipeline exited before the source was closed")
			}
			runErr = err
			return false
		}
	}
	for i := 0; i <= warmup; i++ {
		// The final send of this loop is only consumed once bootstrap
		// training has finished, so everything after it is steady state.
		// Passes simply continue the stream: every pass measures the same
		// steady-state regime.
		if !emit(i) {
			return Result{}, runErr
		}
	}

	next := warmup + 1
	passes := make([]Result, measurePasses)
	for pass := range passes {
		h := hist.New()
		probe := startProbe()
		start := time.Now()
		for i := 0; i < sc.Events; i++ {
			t0 := time.Now()
			if !emit(next) {
				return Result{}, runErr
			}
			next++
			h.Record(time.Since(t0))
		}
		wall := time.Since(start)
		res := Result{
			Scenario:    sc.Name,
			Kind:        string(sc.Kind),
			Ops:         uint64(sc.Events),
			WallSeconds: wall.Seconds(),
			Throughput:  float64(sc.Events) / wall.Seconds(),
		}
		res.AllocsPerOp, res.BytesPerOp = probe.perOp(res.Ops)
		fillLatency(&res, h)
		passes[pass] = res
	}
	close(ch)
	if err := <-done; err != nil {
		return Result{}, err
	}
	return bestOf(passes), nil
}
