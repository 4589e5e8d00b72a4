package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareFiles prints one row per workload and end-to-end metric: the median
// of each side's untraced runs, b's ratio to a, each side's run-to-run
// spread, and a verdict from the bounds in spec.go. A metric whose spread on
// either side is wider than its bound is unresolved, not unchanged.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s (%d untraced runs per workload)\nb = %s (%d untraced runs per workload)\n",
		pathA, len(a.untraced(workloadSpecs[0].Name, "setup_s")), pathB, len(b.untraced(workloadSpecs[0].Name, "setup_s")))
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %9s %9s %9s %7s  %s\n",
		"workload", "metric", "a", "b", "b/a", "spread a", "spread b", "bound", "verdict")
	regressed := 0
	for _, wl := range workloadSpecs {
		for _, m := range endToEndSpecs {
			va, vb := a.untraced(wl.Name, m.Name), b.untraced(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s %s: missing from one of the files", wl.Name, m.Name)
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case spread(va) > m.Bound || spread(vb) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %9.4f %9.4f %9.4f %7.2f  %s\n",
				wl.Name, m.Name, ma, mb, mb/ma, spread(va), spread(vb), m.Bound, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed (ratios are b over a)", regressed)
	}
	return nil
}

func readResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// untraced lists a metric's values over a workload's untraced runs.
func (f *resultFile) untraced(workload, metric string) []float64 {
	var vs []float64
	for _, rec := range f.Workloads[workload] {
		if m, ok := rec.Metrics[metric]; ok && !rec.Traced {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(values, n=4)
// gives, which is how the driver measures run-to-run spread. One run has none.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return (quartile(3) - quartile(1)) / median(s)
}
