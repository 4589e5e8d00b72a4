package main

import (
	"strings"
	"testing"

	"streambrain/internal/perf"
)

func res(name string, throughput, p99 float64) perf.Result {
	return perf.Result{Scenario: name, Kind: "kernel", Ops: 10,
		Throughput: throughput, P99Ms: p99}
}

func verdictFor(t *testing.T, verdicts []Verdict, name string) Verdict {
	t.Helper()
	for _, v := range verdicts {
		if v.Scenario == name {
			return v
		}
	}
	t.Fatalf("no verdict for %q in %+v", name, verdicts)
	return Verdict{}
}

func TestEvaluatePass(t *testing.T) {
	base := []perf.Result{res("a", 1000, 10), res("b", 50, 2)}
	// Improvements and small wobbles inside the thresholds all pass.
	cur := []perf.Result{res("a", 1200, 8), res("b", 45, 2.3)}
	verdicts, failed := Evaluate(base, cur, DefaultThresholds())
	if failed {
		t.Fatalf("unexpected failure: %+v", verdicts)
	}
	for _, v := range verdicts {
		if v.Status != StatusOK {
			t.Fatalf("verdict %+v, want ok", v)
		}
	}
}

func TestEvaluateThroughputRegression(t *testing.T) {
	base := []perf.Result{res("fast", 1000, 10), res("slowed", 1000, 10)}
	// "slowed" is the deliberately slowed scenario: 40% throughput drop.
	cur := []perf.Result{res("fast", 1000, 10), res("slowed", 600, 10)}
	verdicts, failed := Evaluate(base, cur, DefaultThresholds())
	if !failed {
		t.Fatal("40% throughput drop must fail the gate")
	}
	v := verdictFor(t, verdicts, "slowed")
	if v.Status != StatusRegression || !v.Failed() {
		t.Fatalf("verdict %+v, want regression", v)
	}
	if v.ThroughputDelta > -0.39 || v.ThroughputDelta < -0.41 {
		t.Fatalf("ThroughputDelta = %v, want ~-0.40", v.ThroughputDelta)
	}
	if verdictFor(t, verdicts, "fast").Status != StatusOK {
		t.Fatal("unregressed scenario must stay ok")
	}
	// The per-scenario report names the offender with both numbers.
	report := FormatReport(verdicts, failed, true)
	for _, want := range []string{"slowed", "regression", "1000.0 → 600.0", "FAIL"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	// A non-enforcing run must say so in the verdict line, so the log can
	// never read as a hard failure when the exit code is 0.
	if got := FormatReport(verdicts, failed, false); !strings.Contains(got, "FAIL (not enforced)") {
		t.Fatalf("non-enforcing report missing the qualifier:\n%s", got)
	}
	if got := FormatReport(nil, false, true); !strings.Contains(got, "PASS") {
		t.Fatalf("clean report missing PASS:\n%s", got)
	}
}

func TestEvaluateP99Regression(t *testing.T) {
	base := []perf.Result{res("svc", 1000, 10)}
	cur := []perf.Result{res("svc", 1000, 13)} // +30% p99, throughput flat
	verdicts, failed := Evaluate(base, cur, DefaultThresholds())
	if !failed {
		t.Fatal("30% p99 growth must fail the gate")
	}
	v := verdictFor(t, verdicts, "svc")
	if v.Status != StatusRegression || !strings.Contains(v.Detail, "p99") {
		t.Fatalf("verdict %+v, want p99 regression detail", v)
	}
}

func TestEvaluateBoundary(t *testing.T) {
	th := DefaultThresholds()
	// Exactly at the limits: a 15.0% drop and a 25.0% p99 growth pass; the
	// gate fails only strictly beyond them.
	base := []perf.Result{res("edge", 1000, 100)}
	cur := []perf.Result{res("edge", 850, 125)}
	if _, failed := Evaluate(base, cur, th); failed {
		t.Fatal("exactly-at-threshold must pass")
	}
	cur = []perf.Result{res("edge", 849, 100)}
	if _, failed := Evaluate(base, cur, th); !failed {
		t.Fatal("just beyond the throughput threshold must fail")
	}
	cur = []perf.Result{res("edge", 1000, 125.2)}
	if _, failed := Evaluate(base, cur, th); !failed {
		t.Fatal("just beyond the p99 threshold must fail")
	}
}

func TestEvaluateMissingAndNew(t *testing.T) {
	base := []perf.Result{res("kept", 100, 1), res("dropped", 100, 1)}
	cur := []perf.Result{res("kept", 100, 1), res("added", 100, 1)}
	verdicts, failed := Evaluate(base, cur, DefaultThresholds())
	if !failed {
		t.Fatal("a scenario missing from the current run must fail the gate")
	}
	if v := verdictFor(t, verdicts, "dropped"); v.Status != StatusMissing || !v.Failed() {
		t.Fatalf("verdict %+v, want missing", v)
	}
	if v := verdictFor(t, verdicts, "added"); v.Status != StatusNew || v.Failed() {
		t.Fatalf("verdict %+v, want new (non-failing)", v)
	}
}

func TestEvaluateZeroBaseline(t *testing.T) {
	// Degenerate baselines (zero throughput or p99) must not divide by
	// zero or fail spuriously — they are simply not comparable.
	base := []perf.Result{res("zero", 0, 0)}
	cur := []perf.Result{res("zero", 500, 3)}
	verdicts, failed := Evaluate(base, cur, DefaultThresholds())
	if failed || verdicts[0].Status != StatusOK {
		t.Fatalf("verdicts %+v, want ok", verdicts)
	}
}

func TestEvaluateErrorsRegression(t *testing.T) {
	// Failed requests return fast, so a broken path can look faster than
	// the baseline; the error-rate check must fail it anyway.
	base := []perf.Result{res("svc", 1000, 5)}
	cur := []perf.Result{res("svc", 4000, 1)}
	cur[0].Ops, cur[0].Errors = 400, 400 // every request failed
	verdicts, failed := Evaluate(base, cur, DefaultThresholds())
	if !failed {
		t.Fatal("a fully erroring run must fail the gate even when rates improved")
	}
	if v := verdictFor(t, verdicts, "svc"); v.Status != StatusRegression ||
		!strings.Contains(v.Detail, "error rate") {
		t.Fatalf("verdict %+v, want error-rate regression detail", v)
	}
	// One transient blip among 400 real HTTP requests (0.25% < the 1%
	// rise allowance) is noise, not a regression.
	cur[0].Errors = 1
	if _, failed := Evaluate(base, cur, DefaultThresholds()); failed {
		t.Fatal("a single transient error must not fail the gate")
	}
	// An error rate matching the baseline's is not a rise.
	base[0].Ops, base[0].Errors = 400, 40
	cur[0].Errors = 40
	if _, failed := Evaluate(base, cur, DefaultThresholds()); failed {
		t.Fatal("an unchanged error rate must not fail")
	}
}

func TestP99NoiseFloor(t *testing.T) {
	th := DefaultThresholds()
	// Baseline p99 of 6µs: relative p99 wobble at that scale is timer
	// noise, so a 50% "growth" must not fail — but the same growth above
	// the floor must.
	base := []perf.Result{res("tiny", 100000, 0.006)}
	cur := []perf.Result{res("tiny", 100000, 0.009)}
	if _, failed := Evaluate(base, cur, th); failed {
		t.Fatal("p99 below the noise floor must not be gated")
	}
	base = []perf.Result{res("big", 1000, 6)}
	cur = []perf.Result{res("big", 1000, 9)}
	if _, failed := Evaluate(base, cur, th); !failed {
		t.Fatal("the same growth above the floor must fail")
	}
}

func TestEvaluateAllocRegression(t *testing.T) {
	th := DefaultThresholds()
	withAllocs := func(name string, allocs float64) perf.Result {
		r := res(name, 1000, 10)
		r.AllocsPerOp = allocs
		return r
	}
	// A pooled zero-alloc baseline: jitter inside the absolute floor passes,
	// a broken pool (allocations per op reappearing) fails.
	base := []perf.Result{withAllocs("binary", 0)}
	cur := []perf.Result{withAllocs("binary", 20)}
	if _, failed := Evaluate(base, cur, th); failed {
		t.Fatal("alloc growth inside the absolute floor must not fail")
	}
	cur = []perf.Result{withAllocs("binary", 200)}
	verdicts, failed := Evaluate(base, cur, th)
	if !failed {
		t.Fatal("a zero-alloc baseline growing to 200 allocs/op must fail")
	}
	if v := verdictFor(t, verdicts, "binary"); v.Status != StatusRegression ||
		!strings.Contains(v.Detail, "allocs/op") {
		t.Fatalf("verdict %+v, want allocs/op regression detail", v)
	}
	// A chatty JSON baseline: wobble under +50% passes, past it (and past
	// the floor) fails.
	base = []perf.Result{withAllocs("json", 10000)}
	cur = []perf.Result{withAllocs("json", 14000)}
	if _, failed := Evaluate(base, cur, th); failed {
		t.Fatal("+40% alloc growth must pass a 50% gate")
	}
	cur = []perf.Result{withAllocs("json", 16000)}
	if _, failed := Evaluate(base, cur, th); !failed {
		t.Fatal("+60% alloc growth must fail a 50% gate")
	}
}

func TestCustomThresholds(t *testing.T) {
	th := Thresholds{MaxThroughputDrop: 0.01, MaxP99Growth: 0.01}
	base := []perf.Result{res("tight", 1000, 10)}
	cur := []perf.Result{res("tight", 950, 10)} // -5%: fails a 1% gate
	if _, failed := Evaluate(base, cur, th); !failed {
		t.Fatal("tightened thresholds must apply")
	}
}

// ratioCase is one run of CheckRatios over a suite's declared ratios.
type ratioCase struct {
	name    string
	suite   string
	results []perf.Result
	failed  bool
	want    []string // one substring per line, in declaration order
}

// withThroughput returns a copy of results with one scenario's throughput
// changed.
func withThroughput(results []perf.Result, name string, throughput float64) []perf.Result {
	out := append([]perf.Result(nil), results...)
	for i := range out {
		if out[i].Scenario == name {
			out[i].Throughput = throughput
		}
	}
	return out
}

// runRatioCases checks each case's verdict and lines against the ratios
// perf declares for its suite.
func runRatioCases(t *testing.T, cases []ratioCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lines, failed := CheckRatios(c.results, perf.SuiteRatios(c.suite))
			if failed != c.failed || len(lines) != len(c.want) {
				t.Fatalf("failed = %v, %d lines; want %v, %d:\n%s",
					failed, len(lines), c.failed, len(c.want), strings.Join(lines, "\n"))
			}
			for i, want := range c.want {
				if !strings.Contains(lines[i], want) {
					t.Errorf("line %d = %q, want it to contain %q", i, lines[i], want)
				}
			}
		})
	}
}

// TestFusedKernelFloor runs the kernels suite's declared ratios: fused/
// parallel trainstep f64 is held to 1.15x, f32 is informational.
func TestFusedKernelFloor(t *testing.T) {
	kernels := []perf.Result{
		res("trainstep/parallel/f64", 800, 1.3),
		res("trainstep/fused/f64", 1400, 0.8), // 1.75x
		res("trainstep/parallel/f32", 1100, 0.9),
		res("trainstep/fused/f32", 1120, 0.9),
		res("gemm/fused/256/f64", 300, 3.3), // in no ratio: ignored
	}
	runRatioCases(t, []ratioCase{
		{"fused f64 clears 1.15x, f32 informational", "kernels", kernels, false,
			[]string{"fused/f64 / trainstep/parallel/f64 = 1.75x (floor 1.15x) ok", "fused/f32 / trainstep/parallel/f32 = 1.02x (informational)"}},
		{"fused f64 below 1.15x fails, f32 never does", "kernels",
			withThroughput(withThroughput(kernels, "trainstep/fused/f64", 850), "trainstep/fused/f32", 500), true,
			[]string{"= 1.06x (floor 1.15x) FAIL", "= 0.45x (informational)"}},
		{"a suite without declared ratios is exempt", "smoke",
			[]perf.Result{res("predict/json", 100, 1)}, false, nil},
	})
}

// TestSparseSpeedupFloor runs the sparse suite's declared ratios: sparse/
// dense trainstep f64/s80 is held to 1.5x, f32/s80 and f64/s50 are
// informational, and a declared ratio whose scenario the report lacks fails.
func TestSparseSpeedupFloor(t *testing.T) {
	sparse := []perf.Result{
		res("trainstep/dense/f64/s80", 1000, 1.0),
		res("trainstep/sparse/f64/s80", 1800, 0.6), // 1.80x
		res("trainstep/dense/f32/s80", 1400, 0.7),
		res("trainstep/sparse/f32/s80", 2200, 0.5),
		res("trainstep/dense/f64/s50", 900, 1.1),
		res("trainstep/sparse/f64/s50", 1200, 0.9),
		res("trainstep/parallel/f64", 800, 1.3), // kernels-suite name: ignored
	}
	runRatioCases(t, []ratioCase{
		{"sparse f64/s80 clears 1.5x, f32/s80 and s50 informational", "sparse", sparse, false,
			[]string{"f32/s80 = 1.57x (informational)", "f64/s50 = 1.33x (informational)", "f64/s80 = 1.80x (floor 1.50x) ok"}},
		{"sparse f64/s80 below 1.5x fails, s50 never does", "sparse",
			withThroughput(withThroughput(sparse, "trainstep/sparse/f64/s80", 1200), "trainstep/sparse/f64/s50", 500), true,
			[]string{"f32/s80 = 1.57x (informational)", "f64/s50 = 0.56x (informational)", "f64/s80 = 1.20x (floor 1.50x) FAIL"}},
		{"a half pair fails: its twin is missing", "sparse",
			[]perf.Result{res("trainstep/dense/f64/s80", 1000, 1)}, true,
			[]string{"f32/s80 = scenario missing from the report FAIL", "f64/s50 = scenario missing", "f64/s80 = scenario missing"}},
	})
}

// TestCheckRatios runs the fleet suite's declared ratios: r2/r1 and r4/r1
// binary closed-loop throughput are held to 1.7x, and a zero denominator
// fails its floor.
func TestCheckRatios(t *testing.T) {
	fleet := []perf.Result{
		res("fleet/binary/closed/r1", 1000, 2),
		res("fleet/binary/closed/r2", 1900, 2), // 1.90x
		res("fleet/binary/closed/r4", 3500, 2), // 3.50x
		res("fleet/json/closed/r2", 500, 4),    // no r1 twin: no ratio
	}
	runRatioCases(t, []ratioCase{
		{"fleet r2 and r4 clear 1.7x over r1", "fleet", fleet, false,
			[]string{"r2 / fleet/binary/closed/r1 = 1.90x (floor 1.70x) ok", "r4 / fleet/binary/closed/r1 = 3.50x (floor 1.70x) ok"}},
		{"fleet r4 below 1.7x fails", "fleet", withThroughput(fleet, "fleet/binary/closed/r4", 1600), true,
			[]string{"r2 / fleet/binary/closed/r1 = 1.90x (floor 1.70x) ok", "r4 / fleet/binary/closed/r1 = 1.60x (floor 1.70x) FAIL"}},
		{"a zero-throughput denominator fails its floor", "fleet", withThroughput(fleet, "fleet/binary/closed/r1", 0), true,
			[]string{"r2 / fleet/binary/closed/r1 = 0.00x (floor 1.70x) FAIL", "FAIL"}},
	})
}
