package main

import (
	"fmt"
	"sort"
	"strings"

	"streambrain/internal/perf"
)

// Thresholds are the per-scenario regression limits, expressed as
// fractional changes against the baseline. A scenario fails when its
// throughput drops by strictly more than MaxThroughputDrop, or its p99
// latency grows by strictly more than MaxP99Growth.
type Thresholds struct {
	MaxThroughputDrop float64 // default 0.15
	MaxP99Growth      float64 // default 0.25
	// P99FloorMs is the noise floor: when the baseline p99 sits below it,
	// the p99 check is skipped for that scenario. Sub-tenth-millisecond
	// percentiles are dominated by timer resolution and scheduler jitter,
	// and a 25% relative gate on microseconds fails on noise, not
	// regressions. Throughput is still gated.
	P99FloorMs float64 // default 0.1
	// MaxErrorRise is how much the per-scenario error rate (Errors/Ops)
	// may exceed the baseline's before failing. Not zero-tolerance: one
	// transient connection blip among hundreds of real HTTP requests is
	// noise, a broken path erroring on every request is not — and a broken
	// path can look "fast" (failures return quickly), so throughput alone
	// would pass it.
	MaxErrorRise float64 // default 0.01
	// MaxAllocGrowth and AllocFloor gate the allocs/op column: a scenario
	// fails when its current allocs/op exceeds BOTH the baseline by more
	// than MaxAllocGrowth (fractional) AND the baseline plus AllocFloor
	// (absolute). The double condition keeps pooled near-zero baselines
	// honest without turning GC-count jitter into failures: a 0-alloc
	// baseline only fails past the absolute floor, a 10k-alloc JSON path
	// only fails past +50%. This is the check that keeps the binary wire
	// hot path (DESIGN.md §12) allocation-free in CI.
	MaxAllocGrowth float64 // default 0.5
	AllocFloor     float64 // default 32
}

// DefaultThresholds are the gate limits DESIGN.md §8 documents.
func DefaultThresholds() Thresholds {
	return Thresholds{MaxThroughputDrop: 0.15, MaxP99Growth: 0.25, P99FloorMs: 0.1,
		MaxErrorRise: 0.01, MaxAllocGrowth: 0.5, AllocFloor: 32}
}

// Verdict status values.
const (
	StatusOK         = "ok"         // within thresholds
	StatusRegression = "regression" // beyond a threshold — fails the gate
	StatusMissing    = "missing"    // in baseline, absent from current — fails
	StatusNew        = "new"        // in current only — reported, never fails
)

// Verdict is one scenario's comparison outcome.
type Verdict struct {
	Scenario string
	Status   string
	// ThroughputDelta and P99Delta are fractional changes vs the baseline
	// (+ = faster / slower respectively); zero when not comparable.
	ThroughputDelta float64
	P99Delta        float64
	Detail          string
}

// Failed reports whether this verdict alone fails the gate.
func (v Verdict) Failed() bool {
	return v.Status == StatusRegression || v.Status == StatusMissing
}

// Evaluate compares a fresh run against the baseline, scenario by scenario
// (matched by name). Baseline order is preserved; current-only scenarios
// are appended as informational "new" verdicts.
func Evaluate(baseline, current []perf.Result, th Thresholds) (verdicts []Verdict, failed bool) {
	cur := make(map[string]perf.Result, len(current))
	for _, res := range current {
		cur[res.Scenario] = res
	}
	for _, base := range baseline {
		now, ok := cur[base.Scenario]
		delete(cur, base.Scenario)
		if !ok {
			verdicts = append(verdicts, Verdict{
				Scenario: base.Scenario,
				Status:   StatusMissing,
				Detail:   "scenario present in baseline but absent from the current run",
			})
			failed = true
			continue
		}
		v := compare(base, now, th)
		if v.Failed() {
			failed = true
		}
		verdicts = append(verdicts, v)
	}
	extra := make([]string, 0, len(cur))
	for name := range cur {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		verdicts = append(verdicts, Verdict{
			Scenario: name,
			Status:   StatusNew,
			Detail:   "scenario not in baseline; re-baseline to start gating it",
		})
	}
	return verdicts, failed
}

// compare applies the thresholds to one baseline/current pair.
func compare(base, now perf.Result, th Thresholds) Verdict {
	v := Verdict{Scenario: base.Scenario, Status: StatusOK}
	var problems []string
	// Errors gate first: see Thresholds.MaxErrorRise.
	if now.Ops > 0 {
		rate := float64(now.Errors) / float64(now.Ops)
		baseRate := 0.0
		if base.Ops > 0 {
			baseRate = float64(base.Errors) / float64(base.Ops)
		}
		if rate > baseRate+th.MaxErrorRise {
			problems = append(problems, fmt.Sprintf(
				"error rate %.1f%% → %.1f%% (%d of %d ops, limit +%.0f%%)",
				100*baseRate, 100*rate, now.Errors, now.Ops, 100*th.MaxErrorRise))
		}
	}
	if base.Throughput > 0 {
		v.ThroughputDelta = (now.Throughput - base.Throughput) / base.Throughput
		if -v.ThroughputDelta > th.MaxThroughputDrop {
			problems = append(problems, fmt.Sprintf(
				"throughput %.1f → %.1f (%+.1f%%, limit -%.0f%%)",
				base.Throughput, now.Throughput, 100*v.ThroughputDelta, 100*th.MaxThroughputDrop))
		}
	}
	if base.P99Ms > 0 {
		v.P99Delta = (now.P99Ms - base.P99Ms) / base.P99Ms
		if base.P99Ms >= th.P99FloorMs && v.P99Delta > th.MaxP99Growth {
			problems = append(problems, fmt.Sprintf(
				"p99 %.3fms → %.3fms (%+.1f%%, limit +%.0f%%)",
				base.P99Ms, now.P99Ms, 100*v.P99Delta, 100*th.MaxP99Growth))
		}
	}
	// Allocation gate: see Thresholds.MaxAllocGrowth. Both the relative and
	// the absolute headroom must be exceeded, so zero-alloc pooled baselines
	// and chatty JSON baselines are each gated at the scale that matters.
	if now.AllocsPerOp > base.AllocsPerOp*(1+th.MaxAllocGrowth) &&
		now.AllocsPerOp > base.AllocsPerOp+th.AllocFloor {
		problems = append(problems, fmt.Sprintf(
			"allocs/op %.1f → %.1f (limit max(+%.0f%%, +%.0f abs))",
			base.AllocsPerOp, now.AllocsPerOp, 100*th.MaxAllocGrowth, th.AllocFloor))
	}
	if len(problems) > 0 {
		v.Status = StatusRegression
		v.Detail = strings.Join(problems, "; ")
	}
	return v
}

// FormatReport renders the per-scenario verdict table plus a one-line
// summary — the readable half of the gate's contract. enforcing reports
// whether a failure actually fails the run, so the verdict line can never
// contradict the exit code.
func FormatReport(verdicts []Verdict, failed, enforcing bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-12s %12s %10s  %s\n",
		"scenario", "status", "throughput", "p99", "detail")
	fmt.Fprintln(&b, strings.Repeat("-", 88))
	for _, v := range verdicts {
		thr, p99 := "-", "-"
		if v.Status == StatusOK || v.Status == StatusRegression {
			thr = fmt.Sprintf("%+.1f%%", 100*v.ThroughputDelta)
			p99 = fmt.Sprintf("%+.1f%%", 100*v.P99Delta)
		}
		fmt.Fprintf(&b, "%-24s %-12s %12s %10s  %s\n", v.Scenario, v.Status, thr, p99, v.Detail)
	}
	switch {
	case failed && enforcing:
		fmt.Fprintln(&b, "benchgate: FAIL — regression against perf baseline")
	case failed:
		fmt.Fprintln(&b, "benchgate: FAIL (not enforced) — regression reported, gate not armed on this environment")
	default:
		fmt.Fprintln(&b, "benchgate: PASS")
	}
	return b.String()
}

// CheckRatios checks the within-run ratios declared for a suite
// (perf.SuiteRatios) against one report, one line per ratio. A ratio below
// its floor fails, and so does a ratio whose scenario is missing from the
// report; a floor of 0 only reports. Each ratio is its own baseline, so
// callers enforce it even when the environment stamp disarms the baseline
// diff.
func CheckRatios(results []perf.Result, ratios []perf.Ratio) (lines []string, failed bool) {
	rate := make(map[string]float64, len(results))
	for _, r := range results {
		rate[r.Scenario] = r.Throughput
	}
	for _, r := range ratios {
		num, okNum := rate[r.Num]
		den, okDen := rate[r.Den]
		ratio := 0.0
		if den > 0 {
			ratio = num / den
		}
		verdict := fmt.Sprintf("%.2fx (floor %.2fx) ok", ratio, r.Floor)
		switch {
		case !okNum || !okDen:
			failed = true
			verdict = "scenario missing from the report FAIL"
		case r.Floor == 0:
			verdict = fmt.Sprintf("%.2fx (informational)", ratio)
		case ratio < r.Floor:
			failed = true
			verdict = fmt.Sprintf("%.2fx (floor %.2fx) FAIL", ratio, r.Floor)
		}
		lines = append(lines, fmt.Sprintf("benchgate: ratio %s / %s = %s", r.Num, r.Den, verdict))
	}
	return lines, failed
}
