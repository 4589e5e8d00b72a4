package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"streambrain/internal/obs"
)

// metricValue is one reported number, in the shape the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Exact holds the counts that must repeat bit for bit; only the
	// all-workloads run asks for it (-exact), to compare traced and untraced.
	Exact map[string]float64 `json:"exact,omitempty"`
}

// bench is the state of one run of one workload.
type bench struct {
	workload string
	seed     int64
	scale    float64 // --seconds / refSeconds
	full     bool    // at or above the run length BENCHMARK.json asks for
	lenient  bool    // smoke test: timing-dependent validity checks only warn
	setups   int     // set-ups per run; setup_s is their median
	tr       *tracer // nil when untraced
	root     int     // the workload's root span
	phase    int     // the set-up, measure or probes span that is open now

	samples   map[string][]float64
	attempted int64
	failed    int64
	problems  []string
	lastSetup time.Duration
}

func newBench(workload string, seed int64, seconds float64, traced bool) *bench {
	b := &bench{
		workload: workload, seed: seed,
		scale:   seconds / refSeconds,
		full:    seconds >= runSeconds,
		setups:  3,
		samples: map[string][]float64{},
		root:    -1,
		phase:   -1,
	}
	if traced {
		b.tr = newTracer(workload)
		b.root = b.tr.begin(workload, -1)
	}
	return b
}

// scaled returns a stated size at this run's length, never below min.
func (b *bench) scaled(n, min int) int {
	v := int(math.Round(float64(n) * b.scale))
	if v < min {
		return min
	}
	return v
}

// add records one sample of a metric; a metric's value is the median of its
// samples, so a step repeated per set-up or per pass reports a median.
func (b *bench) add(name string, v float64) {
	b.samples[name] = append(b.samples[name], v)
}

func (b *bench) value(name string) float64 { return median(b.samples[name]) }

// check records a failed correctness check; any failure makes the run
// incorrect.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// validity is check for conditions that depend on timing (generator
// headroom, closure of the per-layer parts, tracing overhead). The smoke test
// runs beside other packages' tests on a shared machine, so there they only
// warn.
func (b *bench) validity(ok bool, format string, args ...any) {
	if ok {
		return
	}
	if b.lenient {
		fmt.Fprintf(os.Stderr, "benchmark: %s: not valid at this scale: %s\n", b.workload, fmt.Sprintf(format, args...))
		return
	}
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// count adds checked operations and how many of them failed.
func (b *bench) count(attempted, failed int64) {
	b.attempted += attempted
	b.failed += failed
}

// aucFloor is the AUC below which a model has not merely learned little but
// learned the labels upside down. It cannot be tighter: at these sizes the
// AUC this repository's models reach moves between 0.51 and 0.72 from seed to
// seed (README.md, "Spread"), and the driver runs seeds of its own choosing.
const aucFloor = 0.45

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by nearest rank, 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// scrape reads a registry the way a Prometheus scraper would.
func scrape(reg *obs.Registry) (*obs.Exposition, error) {
	var buf bytes.Buffer
	reg.WriteText(&buf)
	expo, err := obs.ParseText(&buf)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	return expo, nil
}

// sumSamples adds a sample name up over all its label sets (every replica,
// every rank).
func sumSamples(expo *obs.Exposition, name string) float64 {
	sum := 0.0
	for _, s := range expo.Samples {
		if s.Name == name {
			sum += s.Value
		}
	}
	return sum
}

// histMeanMs is the mean of a latency histogram family in a scrape, in ms.
func histMeanMs(expo *obs.Exposition, family string) float64 {
	if n := sumSamples(expo, family+"_count"); n > 0 {
		return sumSamples(expo, family+"_sum") / n * 1000
	}
	return 0
}

// environment is stamped into every result file: a number means little
// without the machine it was taken on.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func stampEnvironment() environment {
	env := environment{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return env
}

// workload is one named set of inputs. setup builds everything up to the
// measured region and may be called several times; measure runs the region
// once on the latest set-up; probes times single layers after it (traced run
// only); close releases what setup started.
type workload interface {
	setup(b *bench) error
	measure(b *bench) error
	probes(b *bench) error
	close()
}

var workloads = map[string]func() workload{
	"train-dense":   func() workload { return &trainWorkload{} },
	"train-sparse":  func() workload { return &trainWorkload{sparse: true} },
	"train-dist":    func() workload { return &trainWorkload{dist: true} },
	"stream-ingest": func() workload { return &streamWorkload{} },
	"serve-fleet":   func() workload { return &serveWorkload{} },
}

// runWorkload drives one workload and returns what to print.
func runWorkload(b *bench) (*result, error) {
	mk, ok := workloads[b.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", b.workload)
	}
	cost := spanCost()
	var w workload
	for i := 0; i < b.setups; i++ {
		if w != nil {
			w.close()
		}
		w = mk()
		start := time.Now()
		b.phase = b.tr.begin("setup", b.root)
		err := w.setup(b)
		b.tr.finish(b.phase)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("%s: set-up: %w", b.workload, err)
		}
		b.lastSetup = time.Since(start)
		b.add("setup_s", b.lastSetup.Seconds())
	}
	defer w.close()
	// Start the measured region from a collected heap, so that what the
	// discarded set-ups left behind does not decide when the first GC lands.
	runtime.GC()
	start := time.Now()
	b.phase = b.tr.begin("measure", b.root)
	err := w.measure(b)
	b.tr.finish(b.phase)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.workload, err)
	}
	measured := time.Since(start)
	b.add("peak_rss_mb", peakRSSMB())
	if b.tr != nil {
		share := float64(b.tr.count()) * cost.Seconds() / measured.Seconds()
		b.add("bench.trace_overhead_share", share)
		b.validity(share <= 0.05, "tracing cost %.1f%% of the measured region, limit 5%%", share*100)
		b.phase = b.tr.begin("probes", b.root)
		err := w.probes(b)
		b.tr.finish(b.phase)
		if err != nil {
			return nil, fmt.Errorf("%s: probes: %w", b.workload, err)
		}
	}
	b.check(b.failed == 0, "%d of %d operations failed", b.failed, b.attempted)
	if b.attempted > 0 {
		b.add("failed_share", float64(b.failed)/float64(b.attempted))
	}
	return b.result()
}

// result selects the declared metrics for this kind of run. A missing
// end-to-end metric is a bug in the workload; a missing per-layer metric
// means its layer was not called here and reads 0.
func (b *bench) result() (*result, error) {
	res := &result{
		Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricValue{}, Exact: map[string]float64{},
	}
	specs := endToEndSpecs
	if b.tr != nil {
		specs = perLayerSpecs
	}
	for _, m := range specs {
		if _, ok := b.samples[m.Name]; !ok && b.tr == nil {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", b.workload, m.Name)
		}
		res.Metrics[m.Name] = metricValue{b.value(m.Name), m.Unit}
	}
	for _, name := range exactMetrics {
		if _, ok := b.samples[name]; ok {
			res.Exact[name] = b.value(name)
		}
	}
	return res, nil
}
