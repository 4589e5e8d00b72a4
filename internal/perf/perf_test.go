package perf

import (
	"path/filepath"
	"testing"
)

// TestSuites validates every built-in suite: resolvable, unique scenario
// names, every scenario well-formed.
func TestSuites(t *testing.T) {
	names := Suites()
	if len(names) == 0 {
		t.Fatal("no built-in suites")
	}
	for _, name := range names {
		scs, err := SuiteByName(name)
		if err != nil {
			t.Fatalf("suite %s: %v", name, err)
		}
		if len(scs) == 0 {
			t.Fatalf("suite %s is empty", name)
		}
	}
	if _, err := SuiteByName("no-such-suite"); err == nil {
		t.Fatal("unknown suite must error")
	}
}

// TestSuiteRatiosNameTheirScenarios: a declared ratio over a scenario its
// suite does not run is a malformed suite, not a silently skipped check.
func TestSuiteRatiosNameTheirScenarios(t *testing.T) {
	suites["bad-ratio"] = suite{scenarios: suites["fleet"].scenarios,
		ratios: []Ratio{{Num: "fleet/binary/closed/r8", Den: "fleet/binary/closed/r1", Floor: 1.7}}}
	defer delete(suites, "bad-ratio")
	if _, err := SuiteByName("bad-ratio"); err == nil {
		t.Fatal("a ratio over a scenario outside its suite must error")
	}
}

func TestScenarioValidate(t *testing.T) {
	bad := []Scenario{
		{},
		{Name: "x", Kind: "weird"},
		{Name: "x", Kind: KindKernel, Op: "gemm", Backend: "naive"},                       // no size
		{Name: "x", Kind: KindKernel, Op: "gemm", Size: 8, Iters: 1},                      // no backend
		{Name: "x", Kind: KindKernel, Op: "nope", Backend: "naive", Iters: 1},             // bad op
		{Name: "x", Kind: KindServeClosed, Requests: 10},                                  // no concurrency
		{Name: "x", Kind: KindServeOpen, Requests: 10},                                    // no rps
		{Name: "x", Kind: KindServeClosed, Concurrency: 1, Requests: 10, Wire: "grpc"},    // bad wire
		{Name: "x", Kind: KindServeOpen, TargetRPS: 5, Requests: 10, Wire: "proto"},       // bad wire
		{Name: "x", Kind: KindStream},                                                     // no events
		{Name: "x", Kind: KindAllreduce, Transport: "chan", Floats: 8, Iters: 1},          // no ranks
		{Name: "x", Kind: KindAllreduce, Transport: "chan", Ranks: 2, Iters: 1},           // no floats
		{Name: "x", Kind: KindAllreduce, Transport: "udp", Ranks: 2, Floats: 8, Iters: 1}, // bad transport
		{Name: "x", Kind: KindTrainScale, Transport: "tcp", Events: 100},                  // no ranks
		{Name: "x", Kind: KindTrainScale, Transport: "tcp", Ranks: 2},                     // no events
		{Name: "x", Kind: KindTrainScale, Transport: "mpi", Ranks: 2, Events: 100},        // bad transport
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("case %d (%+v): expected a validation error", i, sc)
		}
	}
}

// TestRunAllreduceScenario runs the collective sweep's runner at tiny scale
// on both transports: real loopback sockets for tcp, so the measured path is
// the shipped one.
func TestRunAllreduceScenario(t *testing.T) {
	for _, transport := range []string{"chan", "tcp"} {
		sc := Scenario{Name: "allreduce/" + transport + "/test", Kind: KindAllreduce,
			Transport: transport, Ranks: 3, Floats: 256, Iters: 4}
		res, err := (&Runner{}).RunScenario(sc)
		if err != nil {
			t.Fatalf("%s: %v", transport, err)
		}
		if res.Ops != 4 || res.Throughput <= 0 {
			t.Fatalf("%s: implausible result %+v", transport, res)
		}
	}
}

// TestRunTrainScaleScenario drives the end-to-end distributed-training
// scenario at smoke scale over tcp (the more failure-prone fabric).
func TestRunTrainScaleScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a distributed model")
	}
	sc := Scenario{Name: "train/tcp/test", Kind: KindTrainScale,
		Transport: "tcp", Ranks: 2, Events: 512, MCUs: 20}
	res, err := (&Runner{}).RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 || res.Ops == 0 {
		t.Fatalf("implausible result %+v", res)
	}
}

// TestReportRoundTrip pins the BENCH_*.json format: what WriteFile emits,
// ReadFile reproduces.
func TestReportRoundTrip(t *testing.T) {
	rep := NewReport("smoke")
	rep.Results = []Result{
		{Scenario: "a", Kind: "kernel", Ops: 5, WallSeconds: 0.5, Throughput: 10,
			P50Ms: 1, P95Ms: 2, P99Ms: 3, MaxMs: 4, AllocsPerOp: 7, BytesPerOp: 512},
		{Scenario: "b", Kind: "serve-closed", Ops: 100, Errors: 2, Throughput: 400},
	}
	path := filepath.Join(t.TempDir(), "BENCH_smoke.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Suite != "smoke" || got.Go == "" || got.CPUs <= 0 {
		t.Fatalf("environment stamp lost: %+v", got)
	}
	if len(got.Results) != 2 || *got.Find("a") != rep.Results[0] || *got.Find("b") != rep.Results[1] {
		t.Fatalf("results did not round-trip: %+v", got.Results)
	}
	if got.Find("missing") != nil {
		t.Fatal("Find of an absent scenario must be nil")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("ReadFile of a missing file must error")
	}
}

// TestMergeMedian checks the re-baselining merge: per-scenario medians,
// worst-run errors, mismatched scenario sets rejected.
func TestMergeMedian(t *testing.T) {
	mk := func(thr, p99 float64, errs uint64) Report {
		return Report{Suite: "s", Results: []Result{
			{Scenario: "a", Throughput: thr, P99Ms: p99, Errors: errs},
		}}
	}
	merged, err := MergeMedian([]Report{mk(100, 3, 0), mk(300, 1, 2), mk(200, 2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	got := merged.Results[0]
	if got.Throughput != 200 || got.P99Ms != 2 {
		t.Fatalf("median metrics wrong: %+v", got)
	}
	if got.Errors != 2 {
		t.Fatalf("Errors = %d, want worst run (2)", got.Errors)
	}
	if _, err := MergeMedian(nil); err == nil {
		t.Fatal("empty merge must error")
	}
	other := Report{Suite: "s", Results: []Result{{Scenario: "b"}}}
	if _, err := MergeMedian([]Report{mk(1, 1, 0), other}); err == nil {
		t.Fatal("mismatched scenario sets must error")
	}
}

// TestRunKernelScenario runs a deliberately tiny kernel scenario end to end
// and sanity-checks the Result invariants the gate depends on.
func TestRunKernelScenario(t *testing.T) {
	r := &Runner{Logf: t.Logf}
	for _, op := range []string{"gemm", "trace"} {
		sc := Scenario{Name: "t/" + op, Kind: KindKernel, Op: op,
			Backend: "naive", Size: 32, Iters: 3}
		res, err := r.RunScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Scenario != sc.Name || res.Ops != 3 || res.Errors != 0 {
			t.Fatalf("%s: %+v", op, res)
		}
		if res.Throughput <= 0 || res.WallSeconds <= 0 {
			t.Fatalf("%s: non-positive rate: %+v", op, res)
		}
		if res.P50Ms > res.P99Ms || res.P99Ms > res.MaxMs {
			t.Fatalf("%s: percentiles out of order: %+v", op, res)
		}
	}
}

// TestRunServeClosedScenario pushes a small closed-loop HTTP load through a
// real serve.Server and checks every request succeeded. Skipped under
// -short: it trains a (tiny) model first.
func TestRunServeClosedScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	r := &Runner{Logf: t.Logf}
	res, err := r.RunScenario(Scenario{Name: "t/serve", Kind: KindServeClosed,
		Concurrency: 2, BatchSize: 2, Requests: 20, MCUs: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d/%d requests failed", res.Errors, res.Ops)
	}
	if res.Ops != 20 || res.Throughput <= 0 || res.P99Ms <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

// TestRunServeBinaryScenario drives the same closed loop over the binary
// wire protocol, including the -wire override path. Skipped under -short:
// it trains a (tiny) model first.
func TestRunServeBinaryScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	r := &Runner{Logf: t.Logf, WireOverride: "binary"}
	res, err := r.RunScenario(Scenario{Name: "t/serve-binary", Kind: KindServeClosed,
		Concurrency: 2, BatchSize: 2, Requests: 20, MCUs: 20, Wire: "json"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d/%d binary requests failed", res.Errors, res.Ops)
	}
	if res.Ops != 20 || res.Throughput <= 0 || res.P99Ms <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

// TestRunStreamScenario measures a short steady-state ingest. Skipped under
// -short: bootstrap trains on the warmup buffer.
func TestRunStreamScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped with -short")
	}
	r := &Runner{Logf: t.Logf}
	res, err := r.RunScenario(Scenario{Name: "t/stream", Kind: KindStream,
		Warmup: 256, Events: 128, MCUs: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 128 || res.Throughput <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}
