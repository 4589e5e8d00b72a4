// Command benchmark is the repository's yardstick: five workloads over the
// paper pipeline, distributed and streaming training and the serving fleet,
// each reporting end-to-end metrics from an untraced run and per-layer
// metrics from a traced one. README.md in this directory defines every name.
//
//	bash benchmark/run.sh --workload train-dense --seed 1 --seconds 12 --trace 0
//	go run ./benchmark                      # every workload, untraced then traced
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark -spec                # BENCHMARK.json, from the tables in spec.go
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload and print its result as the last line (default: all of them, each untraced then traced)")
	seed := fs.Int64("seed", 1, "seed of every generated input: events, request order, reader offsets")
	seconds := fs.Float64("seconds", runSeconds, "run length; event and request counts scale with it, geometries never do")
	trace := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 traces and prints the per-layer metrics")
	exact := fs.Bool("exact", false, "with -workload: add the exactly repeatable counts to the result line")
	runs := fs.Int("runs", 1, "without -workload: untraced runs per workload, on seeds seed..seed+runs-1")
	out := fs.String("out", filepath.Join("benchmark", "out"), "directory for result.json and the traces")
	compare := fs.Bool("compare", false, "compare two result files given as arguments, b against a")
	spec := fs.Bool("spec", false, "print BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seed == 0 {
		*seed = 1 // the library reads seed 0 as "default", which is 1
	}
	var err error
	switch {
	case *spec:
		fmt.Fprint(stdout, benchmarkJSON())
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		err = compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	case *name != "":
		err = runOne(stdout, *name, *seed, *seconds, *trace != 0, *exact, *out)
	default:
		err = runAll(stdout, stderr, *seed, *seconds, *runs, *out)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

// runOne runs one workload in this process: every metric by name with its
// unit, then the result object as the last line.
func runOne(stdout io.Writer, name string, seed int64, seconds float64, traced, exact bool, outDir string) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	b := newBench(name, seed, seconds, traced)
	res, err := runWorkload(b)
	if err != nil {
		return err
	}
	if b.tr != nil {
		b.tr.finish(b.root)
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		if err := b.tr.write(filepath.Join(outDir, "trace-"+name+".json")); err != nil {
			return err
		}
	}
	printMetrics(stdout, name, res)
	if !exact {
		res.Exact = nil
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		// The result is printed; the error only makes the exit code non-zero.
		return fmt.Errorf("run is not correct: %s", strings.Join(b.problems, "; "))
	}
	return nil
}

func printMetrics(w io.Writer, workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-14s %-34s %16.6g %s\n", workload, n, m.Value, m.Unit)
	}
}

// runRecord is one run of one workload as result.json keeps it.
type runRecord struct {
	Seed   int64 `json:"seed"`
	Traced bool  `json:"traced"`
	result
}

// resultFile is the machine-readable result of an all-workloads run and the
// input of -compare.
type resultFile struct {
	Env       environment            `json:"env"`
	Seconds   float64                `json:"seconds"`
	Workloads map[string][]runRecord `json:"workloads"`
}

// runAll runs every workload untraced (runs times, one seed each) and then
// traced, each run in a process of its own so that peak memory and garbage
// collector state belong to one workload. Runs of different workloads are
// interleaved, so drift in the machine spreads over all of them.
func runAll(stdout, stderr io.Writer, seed int64, seconds float64, runs int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Env: stampEnvironment(), Seconds: seconds, Workloads: map[string][]runRecord{}}
	envLine, _ := json.Marshal(file.Env) // a struct of strings and ints always marshals
	fmt.Fprintf(stdout, "environment %s\n", envLine)
	var problems []string
	for i := 0; i <= runs; i++ {
		traced := i == runs
		for _, w := range workloadSpecs {
			rec := runRecord{Seed: seed + int64(i), Traced: traced}
			if traced {
				rec.Seed = seed
			}
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(rec.Seed), "-seconds", fmt.Sprint(seconds),
				"-exact", "-out", outDir}
			if traced {
				args = append(args, "-trace", "1")
			}
			var captured bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &captured, stderr
			runErr := cmd.Run()
			table, last := splitLastLine(captured.Bytes())
			if err := json.Unmarshal(last, &rec.result); err != nil {
				return fmt.Errorf("%s: no result (%v): %v", w.Name, runErr, err)
			}
			fmt.Fprintf(stdout, "%s seed %d traced=%v correct=%v attempted=%d failed=%d\n%s",
				w.Name, rec.Seed, traced, rec.Correct, rec.Attempted, rec.Failed, table)
			if runErr != nil || !rec.Correct {
				problems = append(problems, fmt.Sprintf("%s seed %d traced=%v: %v", w.Name, rec.Seed, traced, runErr))
			}
			file.Workloads[w.Name] = append(file.Workloads[w.Name], rec)
		}
	}
	// A count that is exact must not depend on whether the run was traced.
	for name, recs := range file.Workloads {
		traced := recs[len(recs)-1]
		for _, rec := range recs[:len(recs)-1] {
			if rec.Seed != traced.Seed {
				continue
			}
			for metric, v := range traced.Exact {
				if u, ok := rec.Exact[metric]; ok && u != v {
					problems = append(problems, fmt.Sprintf("%s: %s is %v untraced and %v traced", name, metric, u, v))
				}
			}
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s and %d traces\n", path, len(workloadSpecs))
	if len(problems) > 0 {
		return fmt.Errorf("%d runs failed:\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	return nil
}

// splitLastLine separates a run's metric table from the result object that
// is its last line.
func splitLastLine(out []byte) (table, last []byte) {
	out = bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(out, '\n')
	return out[:i+1], out[i+1:]
}
