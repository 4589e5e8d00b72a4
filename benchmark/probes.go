package main

import (
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"streambrain/internal/backend"
	"streambrain/internal/core"
	"streambrain/internal/data"
	"streambrain/internal/mpi"
	"streambrain/internal/tensor"
)

// probeBackends times the same 128-row training step at 1x3000 on a layer
// built over each backend, so a move of the default backend's step can be
// read against the others. naive is the single-threaded baseline.
func probeBackends(b *bench, train *data.Encoded) error {
	parent := b.tr.begin("backend probes", b.phase)
	defer b.tr.finish(parent)
	budget := time.Duration(0.5 * b.scale * float64(time.Second))
	batch := min(core.DefaultParams().BatchSize, train.Len())
	for _, c := range []struct {
		name      string
		precision core.Precision
		metric    string
	}{
		{"naive", core.Float64, "backend.step_ms.naive.f64"},
		{"parallel", core.Float64, "backend.step_ms.parallel.f64"},
		{"fused", core.Float64, "backend.step_ms.fused.f64"},
		{"parallel", core.Float32, "backend.step_ms.parallel.f32"},
		{"fused", core.Float32, "backend.step_ms.fused.f32"},
	} {
		be, err := backend.New(c.name, 0)
		if err != nil {
			return err
		}
		p := core.DefaultParams()
		p.MCUs, p.Precision, p.Seed = trainUnits, c.precision, b.seed
		l := core.NewNetwork(be, train.Hypercolumns, train.UnitsPerHC, train.Classes, p).Hidden
		l.InitTracesFromData(train.Idx)
		var steps []float64
		for start := time.Now(); len(steps) < 4 || time.Since(start) < budget; {
			lo := (len(steps) * batch) % (train.Len() - batch + 1)
			steps = append(steps, ms(b.tr.timed(c.metric, parent, func() { l.TrainBatch(train.Idx[lo : lo+batch]) })))
		}
		b.add(c.metric, median(steps[1:])) // the first step pays for scratch buffers
	}
	return nil
}

// probeMachine measures the two ceilings step_ms is read against: the
// default backend's matrix multiply rate and the machine's memory bandwidth.
func probeMachine(b *bench) {
	parent := b.tr.begin("machine probes", b.phase)
	defer b.tr.finish(parent)

	const n = 512
	rng := rand.New(rand.NewSource(b.seed))
	a, c, dst := tensor.NewMatrix(n, n), tensor.NewMatrix(n, n), tensor.NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i], c.Data[i] = rng.Float64(), rng.Float64()
	}
	be := backend.MustNew("parallel", 0)
	var gemm []float64
	for i := 0; i < 5; i++ {
		gemm = append(gemm, b.tr.timed("backend.MatMul 512^3", parent, func() { be.MatMul(dst, a, c) }).Seconds())
	}
	b.add("backend.gemm_gflops", 2*n*n*n/median(gemm[1:])/1e9)

	// Triad x[i] = y[i] + 3*z[i] over three arrays that together are four times
	// the last-level cache, split over one goroutine per CPU. The total is
	// capped at 384 MiB: a virtual machine reports the whole socket's cache
	// (260 MB here), and first-touching a gigabyte costs more than the probe.
	// A run shorter than BENCHMARK.json's only exercises the code: 16 MiB is
	// a cache measurement, not a memory one.
	total := min(4*lastLevelCacheBytes(), 384<<20)
	if !b.full {
		total = 16 << 20
	}
	elems := total / 3 / 8
	x, y, z := make([]float64, elems), make([]float64, elems), make([]float64, elems)
	for i := range y {
		y[i], z[i] = 1, 2
	}
	workers := runtime.NumCPU()
	var triad []float64
	for i := 0; i < 4; i++ {
		triad = append(triad, b.tr.timed("triad", parent, func() {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				lo, hi := w*elems/workers, (w+1)*elems/workers
				wg.Add(1)
				go func() {
					defer wg.Done()
					xs, ys, zs := x[lo:hi], y[lo:hi], z[lo:hi]
					for i := range xs {
						xs[i] = ys[i] + 3*zs[i]
					}
				}()
			}
			wg.Wait()
		}).Seconds())
	}
	b.add("machine.triad_gbps", float64(3*8*elems)/median(triad[1:])/1e9)
}

// lastLevelCacheBytes reads the largest cache cpu0 reports, 32 MiB if sysfs
// does not say.
func lastLevelCacheBytes() int {
	best := 0
	for i := 0; i < 8; i++ {
		raw, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(raw))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.Atoi(s); err == nil && v*mult > best {
			best = v * mult
		}
	}
	if best == 0 {
		return 32 << 20
	}
	return best
}

// probeAllreduce times the collective that dominates train-dist on its own:
// an allreduce-mean of a Cij-sized buffer over a fresh two-rank tcp world.
func probeAllreduce(b *bench) error {
	parent := b.tr.begin("mpi probes", b.phase)
	defer b.tr.finish(parent)
	world, err := mpi.NewWorldFor("tcp", distRanks, mpi.TCPOptions{})
	if err != nil {
		return err
	}
	defer world.Close()
	const cijFloats = 280 * trainUnits
	reps := b.scaled(12, 3)
	var rank0 []float64
	err = world.Run(func(c *mpi.Comm) error {
		buf := make([]float64, cijFloats)
		for i := 0; i < reps; i++ {
			start := time.Now()
			if err := c.AllreduceMean(buf); err != nil {
				return err
			}
			if c.Rank() == 0 {
				rank0 = append(rank0, ms(time.Since(start)))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.add("mpi.allreduce_cij_ms", median(rank0[1:]))
	return nil
}
