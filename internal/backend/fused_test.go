package backend

import (
	"math"
	"math/rand"
	"testing"

	"streambrain/internal/tensor"
)

// layerState is one complete fused-step operand set, generic over precision,
// buildable from a seed so fused and composed runs start bit-identical.
type layerState[T tensor.Float] struct {
	idx  [][]int32
	act  *tensor.Dense[T]
	ci   []T
	cj   []T
	cij  *tensor.Dense[T]
	w    *tensor.Dense[T]
	bias []T
	hyp  LayerHyper[T]
}

// newLayerState builds a dense-regime step operand set: the trace index is
// nil, the receptive field is a random partial index when masked and the full
// index otherwise, and silent weight blocks hold zeros.
func newLayerState[T tensor.Float](rng *rand.Rand, batch int, masked, noisy bool) *layerState[T] {
	const fi, mi, h, m = 6, 4, 3, 5
	in, units := fi*mi, h*m
	s := &layerState[T]{
		act:  tensor.NewDense[T](batch, units),
		ci:   make([]T, in),
		cj:   make([]T, units),
		cij:  tensor.NewDense[T](in, units),
		w:    tensor.NewDense[T](in, units),
		bias: make([]T, units),
		hyp: LayerHyper[T]{
			Taupdt:       0.03,
			Taubdt:       0.02,
			PMinFraction: 0.5, // pmin = 0.1: some units below, some above
			Temperature:  0.8,
			Eps:          1e-9,
			Kbi:          make([]T, units),
		},
	}
	s.idx = make([][]int32, batch)
	for b := range s.idx {
		for f := 0; f < fi; f++ {
			s.idx[b] = append(s.idx[b], int32(f*mi+rng.Intn(mi)))
		}
	}
	for i := range s.ci {
		s.ci[i] = T(rng.Float64()*0.9 + 0.05)
	}
	for j := range s.cj {
		s.cj[j] = T(rng.Float64()*0.9 + 0.05)
		s.hyp.Kbi[j] = T(1 + 0.2*rng.Float64())
		s.bias[j] = T(rng.NormFloat64() * 0.1)
	}
	for i := range s.cij.Data {
		s.cij.Data[i] = T(rng.Float64()*0.9 + 0.05)
	}
	for i := range s.w.Data {
		s.w.Data[i] = T(rng.NormFloat64())
	}
	var mask []bool
	if masked {
		mask = make([]bool, fi*h)
		for i := range mask {
			mask[i] = rng.Intn(2) == 0
		}
	}
	s.hyp.Blocks = tensor.NewBlockIndex(mask, fi, mi, h, m)
	tensor.ZeroSilent(s.w, s.hyp.Blocks)
	if noisy {
		s.hyp.NoiseStd, s.hyp.NoiseKey = 0.05, rng.Uint64()
	}
	return s
}

func (s *layerState[T]) clone() *layerState[T] {
	c := *s
	c.act = s.act.Clone()
	c.ci = append([]T(nil), s.ci...)
	c.cj = append([]T(nil), s.cj...)
	c.cij = s.cij.Clone()
	c.w = s.w.Clone()
	c.bias = append([]T(nil), s.bias...)
	c.hyp.Kbi = append([]T(nil), s.hyp.Kbi...)
	return &c
}

func (s *layerState[T]) step(k Kernels[T]) {
	k.LayerStep(s.idx, s.act, s.ci, s.cj, s.cij, s.w, s.bias, s.hyp)
}

// composed drives the same batch update through ComposedStep on k.
func (s *layerState[T]) composed(k Kernels[T]) {
	ComposedStep(k, s.idx, s.act, s.ci, s.cj, s.cij, s.w, s.bias, s.hyp, make([]T, len(s.cj)))
}

// TestHomeostasisMatchesReference checks the one gain rule every step runs
// against an independent float64 transcription of it, over units on both
// sides of the starvation threshold.
func TestHomeostasisMatchesReference(t *testing.T) {
	const m, taubdt, pminFr, eps = 5, 0.02, 0.5, 1e-9
	rng := rand.New(rand.NewSource(4))
	cj := make([]float64, 40)
	kbi := make([]float64, len(cj))
	for j := range cj {
		cj[j] = rng.Float64() * 0.2 // pmin = 0.1: about half starved
		kbi[j] = 1 + 0.2*rng.Float64()
	}
	want := append([]float64(nil), kbi...)
	fair, pmin := math.Log(1/float64(m)), pminFr/float64(m)
	for j, v := range cj {
		target := 1.0
		if v < pmin {
			target = fair / math.Log(math.Max(v, eps))
		}
		want[j] = (1-taubdt)*want[j] + taubdt*target
	}
	Homeostasis(kbi, cj, m, taubdt, pminFr, eps)
	for j := range kbi {
		if kbi[j] != want[j] {
			t.Fatalf("unit %d: kbi %v, want %v", j, kbi[j], want[j])
		}
	}
}

func maxSliceDiff[T tensor.Float](a, b []T) float64 {
	var d float64
	for i := range a {
		if v := math.Abs(float64(a[i]) - float64(b[i])); v > d {
			d = v
		}
	}
	return d
}

func (s *layerState[T]) maxDiff(o *layerState[T]) float64 {
	d := maxSliceDiff(s.act.Data, o.act.Data)
	d = math.Max(d, maxSliceDiff(s.ci, o.ci))
	d = math.Max(d, maxSliceDiff(s.cj, o.cj))
	d = math.Max(d, maxSliceDiff(s.cij.Data, o.cij.Data))
	d = math.Max(d, maxSliceDiff(s.w.Data, o.w.Data))
	d = math.Max(d, maxSliceDiff(s.bias, o.bias))
	return math.Max(d, maxSliceDiff(s.hyp.Kbi, o.hyp.Kbi))
}

// TestFusedMatchesComposed is the fused ≡ composed property test: one fused
// LayerStep must equal ComposedStep over every batch shape, masked and
// unmasked, noisy and noise-free, at both precisions and at both serial and
// parallel worker counts — bit for bit at float64.
func TestFusedMatchesComposed(t *testing.T) {
	seeds := []int64{1, 2, 3}
	run := func(t *testing.T, check func(t *testing.T, seed int64, batch, workers int, masked, noisy bool)) {
		for _, seed := range seeds {
			for _, batch := range []int{1, 7, 64} {
				for _, workers := range []int{1, 4} {
					for _, masked := range []bool{false, true} {
						for _, noisy := range []bool{false, true} {
							check(t, seed, batch, workers, masked, noisy)
						}
					}
				}
			}
		}
	}
	t.Run("f64", func(t *testing.T) {
		run(t, func(t *testing.T, seed int64, batch, workers int, masked, noisy bool) {
			fusedS := newLayerState[float64](rand.New(rand.NewSource(seed)), batch, masked, noisy)
			composedS := fusedS.clone()
			fusedS.step(NewFused(workers))
			composedS.composed(MustNew("naive", 0))
			if d := fusedS.maxDiff(composedS); d != 0 {
				t.Fatalf("seed %d batch %d workers %d masked %v noisy %v: fused diverges by %g",
					seed, batch, workers, masked, noisy, d)
			}
		})
	})
	t.Run("f32", func(t *testing.T) {
		run(t, func(t *testing.T, seed int64, batch, workers int, masked, noisy bool) {
			fusedS := newLayerState[float32](rand.New(rand.NewSource(seed)), batch, masked, noisy)
			composedS := fusedS.clone()
			fusedS.step(NewFusedOf[float32](workers))
			composedS.composed(MustNew32("naive", 0))
			if d := fusedS.maxDiff(composedS); d > 1e-5 {
				t.Fatalf("seed %d batch %d workers %d masked %v noisy %v: fused diverges by %g",
					seed, batch, workers, masked, noisy, d)
			}
		})
	})
}

// TestLayerStepperConformance runs every registered backend's LayerStep
// against ComposedStep over the same backend's kernels — the contract: a
// backend's one-call step computes the function its kernels compose (for
// fpgasim that includes the posit parameter quantization, which both paths
// apply identically).
func TestLayerStepperConformance(t *testing.T) {
	for _, name := range Names() {
		t.Run(name+"/f64", func(t *testing.T) {
			stepS := newLayerState[float64](rand.New(rand.NewSource(17)), 9, true, false)
			composedS := stepS.clone()
			stepS.step(MustNew(name, 3))
			composedS.composed(MustNew(name, 3))
			if d := stepS.maxDiff(composedS); d != 0 {
				t.Fatalf("%s LayerStep diverges from its composed sequence by %g", name, d)
			}
		})
	}
	for _, name := range Names32() {
		t.Run(name+"/f32", func(t *testing.T) {
			stepS := newLayerState[float32](rand.New(rand.NewSource(17)), 9, true, false)
			composedS := stepS.clone()
			stepS.step(MustNew32(name, 3))
			composedS.composed(MustNew32(name, 3))
			if d := stepS.maxDiff(composedS); d > 1e-5 {
				t.Fatalf("%s LayerStep diverges from its composed sequence by %g", name, d)
			}
		})
	}
}

// TestFusedLayerStepShapeChecks: a malformed operand set must panic, not
// corrupt memory, on the fused and on the composed step.
func TestFusedLayerStepShapeChecks(t *testing.T) {
	for _, be := range []Backend{NewFused(1), MustNew("naive", 1)} {
		s := newLayerState[float64](rand.New(rand.NewSource(1)), 4, false, false)
		s.act = tensor.NewDense[float64](3, s.w.Cols) // batch mismatch
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic on act shape mismatch", be.Name())
				}
			}()
			s.step(be)
		}()
	}
}
