package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesSpec keeps the committed contract and the tables
// the program runs from in step: BENCHMARK.json is `-spec` output.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != benchmarkJSON() {
		t.Fatalf("BENCHMARK.json differs from `go run ./benchmark -spec`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, endToEndSpecs...), perLayerSpecs...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (%s): bad or repeated name, or bad unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	for _, w := range workloadSpecs {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") || seen[w.Name] {
			t.Errorf("workload %q: bad or repeated name, or a why that is not one line of at most 200 characters", w.Name)
		}
		seen[w.Name] = true
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at 1/40 of the stated
// sizes and checks what a run prints: every declared metric once, with its
// declared unit, and correct outputs.
func TestSmoke(t *testing.T) {
	for _, w := range workloadSpecs {
		for _, traced := range []bool{false, true} {
			b := newBench(w.Name, 1, refSeconds/40.0, traced)
			b.lenient, b.setups = true, 1
			res, err := runWorkload(b)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: not correct: %s", w.Name, traced, strings.Join(b.problems, "; "))
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.Name, traced, res.Attempted, res.Failed)
			}
			want := endToEndSpecs
			if traced {
				want = perLayerSpecs
			}
			var printed bytes.Buffer
			printMetrics(&printed, w.Name, res)
			lines := strings.Split(strings.TrimSpace(printed.String()), "\n")
			if len(lines) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, %d declared", w.Name, traced, len(lines), len(want))
			}
			for _, m := range want {
				n := 0
				for _, line := range lines {
					if f := strings.Fields(line); len(f) == 4 && f[1] == m.Name && f[3] == m.Unit {
						n++
					}
				}
				if n != 1 {
					t.Errorf("%s traced=%v: %s [%s] printed %d times", w.Name, traced, m.Name, m.Unit, n)
				}
				if v := res.Metrics[m.Name].Value; math.IsNaN(v) || math.IsInf(v, 0) || (!traced && v == 0) {
					t.Errorf("%s traced=%v: %s = %v", w.Name, traced, m.Name, v)
				}
			}
		}
	}
}

// TestImports holds the benchmark to the public surface it may depend on:
// the perf harness and the tools are what it replaces as evidence, not what
// it is built from.
func TestImports(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for path, file := range pkg.Files {
			for _, imp := range file.Imports {
				if p := strings.Trim(imp.Path.Value, `"`); strings.HasPrefix(p, "streambrain/internal/perf") || strings.HasPrefix(p, "streambrain/tools") {
					t.Errorf("%s imports %s", path, p)
				}
			}
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	values := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got := spread(values); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one run = %v, want 0", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	side := func(scale map[string]float64, wide string) string {
		f := resultFile{Workloads: map[string][]runRecord{}}
		for _, w := range workloadSpecs {
			for run := 0; run < 3; run++ {
				rec := runRecord{result: result{Metrics: map[string]metricValue{}}}
				for _, m := range endToEndSpecs {
					v := 100.0
					if k, ok := scale[m.Name]; ok {
						v *= k
					}
					if m.Name == wide {
						v *= 1 + float64(run) // a spread far beyond any bound
					}
					rec.Metrics[m.Name] = metricValue{v, m.Unit}
				}
				f.Workloads[w.Name] = append(f.Workloads[w.Name], rec)
			}
		}
		path := filepath.Join(t.TempDir(), "result.json")
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := side(nil, "")
	var out bytes.Buffer
	if err := compareFiles(&out, a, a); err != nil || strings.Contains(out.String(), "regressed") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("A/A: err=%v\n%s", err, out.String())
	}
	out.Reset()
	// Slower by 40% where the bound is 25%; a 40% gain elsewhere; one metric too noisy to call.
	b := side(map[string]float64{"pipeline_wall_s": 1.4, "train_events_per_s": 1.4}, "predict_p50_ms")
	err := compareFiles(&out, a, b)
	if err == nil {
		t.Errorf("a regression did not fail the comparison")
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		verdict := f[len(f)-1]
		switch f[1] {
		case "pipeline_wall_s":
			if verdict != "regressed" {
				t.Errorf("pipeline_wall_s: %s", line)
			}
		case "predict_p50_ms":
			if verdict != "unresolved" {
				t.Errorf("predict_p50_ms: %s", line)
			}
		case "train_events_per_s", "setup_s":
			if verdict != "ok" {
				t.Errorf("%s: %s", f[1], line)
			}
		}
	}
}
