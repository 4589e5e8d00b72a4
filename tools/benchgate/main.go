// Command benchgate is the CI perf-regression gate (DESIGN.md §8): it diffs
// a fresh BENCH_<suite>.json run against the committed perf/baseline.json
// and exits non-zero when any scenario's throughput drops more than 15% or
// its p99 latency grows more than 25% (tunable via flags). The report lists
// every scenario with its fractional deltas, so a failing run names exactly
// which hot path regressed and by how much. It then checks the within-run
// throughput ratios declared beside the report's suite in internal/perf
// (perf.SuiteRatios) and exits non-zero when one falls below its floor, on
// any machine.
//
//	go run ./cmd/streambrain-loadtest -suite smoke
//	go run ./tools/benchgate -baseline perf/baseline.json -current BENCH_smoke.json
//
// To re-baseline after an accepted perf change:
//
//	go run ./cmd/streambrain-loadtest -suite smoke -out perf/baseline.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"streambrain/internal/perf"
)

func main() {
	baselinePath := flag.String("baseline", "perf/baseline.json", "committed baseline report")
	currentPath := flag.String("current", "BENCH_smoke.json", "fresh report to gate")
	th := DefaultThresholds()
	flag.Float64Var(&th.MaxThroughputDrop, "max-throughput-drop", th.MaxThroughputDrop,
		"fail when throughput drops more than this fraction")
	flag.Float64Var(&th.MaxP99Growth, "max-p99-growth", th.MaxP99Growth,
		"fail when p99 latency grows more than this fraction")
	flag.Float64Var(&th.P99FloorMs, "p99-floor-ms", th.P99FloorMs,
		"skip the p99 check when the baseline p99 is below this (timer noise)")
	flag.Float64Var(&th.MaxErrorRise, "max-error-rise", th.MaxErrorRise,
		"fail when the error rate exceeds the baseline's by more than this fraction")
	flag.Float64Var(&th.MaxAllocGrowth, "max-alloc-growth", th.MaxAllocGrowth,
		"fail when allocs/op grows more than this fraction (and past -alloc-floor)")
	flag.Float64Var(&th.AllocFloor, "alloc-floor", th.AllocFloor,
		"absolute allocs/op headroom below which alloc growth is not gated")
	advisory := flag.Bool("advisory", false,
		"report regressions but exit 0 — for bootstrapping a baseline on new hardware")
	strict := flag.Bool("strict", false,
		"fail on regressions even when the environment stamp differs from the baseline")
	flag.Parse()

	baseline, err := perf.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	current, err := perf.ReadFile(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if baseline.Suite != current.Suite {
		fmt.Fprintf(os.Stderr, "benchgate: baseline is suite %q but current is %q — not comparable\n",
			baseline.Suite, current.Suite)
		os.Exit(2)
	}
	// Different hardware shifts absolute rates without any code change, so
	// the gate self-hardens: on a stamp mismatch regressions are reported
	// but do not fail (unless -strict). Re-baselining on the gating
	// hardware makes the stamps match, and the gate hardens automatically.
	// Go is compared at minor-version granularity so a routine runner
	// patch bump (1.24.5 → 1.24.6) does not silently un-harden the gate.
	envMismatch := baseline.GOOS != current.GOOS || baseline.GOARCH != current.GOARCH ||
		baseline.CPUs != current.CPUs || goMinor(baseline.Go) != goMinor(current.Go)
	switch {
	case *advisory:
		fmt.Println("benchgate: GATE NOT ENFORCING (advisory mode)")
	case envMismatch && !*strict:
		fmt.Printf("benchgate: GATE NOT ENFORCING — environment differs from baseline "+
			"(%s/%s %s %d cpu vs %s/%s %s %d cpu); re-baseline on this hardware to harden "+
			"the gate, or pass -strict\n",
			current.GOOS, current.GOARCH, current.Go, current.CPUs,
			baseline.GOOS, baseline.GOARCH, baseline.Go, baseline.CPUs)
	default:
		fmt.Println("benchgate: gate ENFORCING (environment matches baseline)")
	}

	enforcing := !*advisory && (!envMismatch || *strict)
	verdicts, failed := Evaluate(baseline.Results, current.Results, th)
	fmt.Print(FormatReport(verdicts, failed, enforcing))
	// The ratios declared beside the suite are within-run (each is its own
	// baseline), so they need no matching environment stamp: they enforce
	// on every machine unless running advisory.
	lines, ratioFailed := CheckRatios(current.Results, perf.SuiteRatios(current.Suite))
	for _, l := range lines {
		fmt.Println(l)
	}
	if (failed && enforcing) || (ratioFailed && !*advisory) {
		os.Exit(1)
	}
}

// goMinor reduces a runtime version ("go1.24.5") to its minor series
// ("go1.24") for the environment-stamp comparison.
func goMinor(v string) string {
	if i := strings.Index(v, "."); i >= 0 {
		if j := strings.Index(v[i+1:], "."); j >= 0 {
			return v[:i+1+j]
		}
	}
	return v
}
