package backend

import (
	"math/rand"
	"testing"

	"streambrain/internal/tensor"
)

// The float32 kernel sets are conformance-checked against the float64 naive
// reference exactly the way the float64 backends are checked against each
// other: same inputs (cast down), results must agree within float32
// accumulation error.

// f32Fixture builds matched f64/f32 inputs for one trace-update step.
type f32Fixture struct {
	idx      [][]int32
	act64    *tensor.Matrix
	act32    *tensor.Matrix32
	cij64    *tensor.Matrix
	cij32    *tensor.Matrix32
	ci64     []float64
	ci32     []float32
	cj64     []float64
	cj32     []float32
	fi, mi   int
	h, m     int
	in, outs int
}

func newF32Fixture(rng *rand.Rand) *f32Fixture {
	const (
		fi, mi = 7, 10
		h, m   = 3, 17 // odd unit count: exercises SIMD tails
		batch  = 9
	)
	f := &f32Fixture{fi: fi, mi: mi, h: h, m: m, in: fi * mi, outs: h * m}
	f.act64 = tensor.NewMatrix(batch, f.outs)
	for i := range f.act64.Data {
		f.act64.Data[i] = rng.Float64()
	}
	f.act32 = tensor.Cast[float32](f.act64)
	f.cij64 = tensor.NewMatrix(f.in, f.outs)
	for i := range f.cij64.Data {
		f.cij64.Data[i] = rng.Float64()*0.1 + 0.001
	}
	f.cij32 = tensor.Cast[float32](f.cij64)
	f.ci64 = make([]float64, f.in)
	f.cj64 = make([]float64, f.outs)
	for i := range f.ci64 {
		f.ci64[i] = rng.Float64()*0.1 + 0.01
	}
	for j := range f.cj64 {
		f.cj64[j] = rng.Float64()*0.1 + 0.01
	}
	f.ci32 = make([]float32, f.in)
	f.cj32 = make([]float32, f.outs)
	tensor.CastSlice(f.ci32, f.ci64)
	tensor.CastSlice(f.cj32, f.cj64)
	f.idx = make([][]int32, batch)
	for s := range f.idx {
		for g := 0; g < fi; g++ {
			f.idx[s] = append(f.idx[s], int32(g*mi+rng.Intn(mi)))
		}
	}
	return f
}

func maxAbsDiff32(a []float64, b []float32) float64 {
	var max float64
	for i := range a {
		d := a[i] - float64(b[i])
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

func TestFloat32BackendsMatchFloat64Reference(t *testing.T) {
	for _, name := range Names32() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			f := newF32Fixture(rng)
			ref := MustNew("naive", 1)
			be := MustNew32(name, 3)

			// Forward pass: one-hot matmul + bias + grouped softmax.
			w64 := tensor.NewMatrix(f.in, f.outs)
			ref.UpdateWeights(w64, f.ci64, f.cj64, f.cij64, nil, 1e-9)
			w32 := tensor.NewMatrix32(f.in, f.outs)
			be.UpdateWeights(w32, f.ci32, f.cj32, f.cij32, nil, 1e-9)
			if d := maxAbsDiff32(w64.Data, w32.Data); d > 1e-3 {
				t.Fatalf("UpdateWeights diverges by %g", d)
			}

			bias64 := make([]float64, f.outs)
			kbi := make([]float64, f.outs)
			for j := range kbi {
				kbi[j] = 1
			}
			ref.UpdateBias(bias64, kbi, f.cj64, 1e-9)
			bias32 := make([]float32, f.outs)
			kbi32 := make([]float32, f.outs)
			tensor.CastSlice(kbi32, kbi)
			be.UpdateBias(bias32, kbi32, f.cj32, 1e-9)
			if d := maxAbsDiff32(bias64, bias32); d > 1e-4 {
				t.Fatalf("UpdateBias diverges by %g", d)
			}

			out64 := tensor.NewMatrix(len(f.idx), f.outs)
			ref.OneHotMatMul(out64, f.idx, w64, nil)
			ref.AddBias(out64, bias64)
			ref.SoftmaxGroups(out64, f.h, f.m, 1)
			out32 := tensor.NewMatrix32(len(f.idx), f.outs)
			be.OneHotMatMul(out32, f.idx, w32, nil)
			be.AddBias(out32, bias32)
			be.SoftmaxGroups(out32, f.h, f.m, 1)
			if d := maxAbsDiff32(out64.Data, out32.Data); d > 1e-4 {
				t.Fatalf("forward pass diverges by %g", d)
			}

			// Trace updates.
			ref.OneHotMeanLerp(f.ci64, f.idx, 0.01)
			be.OneHotMeanLerp(f.ci32, f.idx, 0.01)
			if d := maxAbsDiff32(f.ci64, f.ci32); d > 1e-5 {
				t.Fatalf("OneHotMeanLerp diverges by %g", d)
			}
			ref.OneHotOuterLerp(f.cij64, f.idx, f.act64, 0.01, nil)
			be.OneHotOuterLerp(f.cij32, f.idx, f.act32, 0.01, nil)
			if d := maxAbsDiff32(f.cij64.Data, f.cij32.Data); d > 1e-5 {
				t.Fatalf("OneHotOuterLerp diverges by %g", d)
			}
			sq64 := tensor.NewMatrix(f.outs, f.outs)
			sq32 := tensor.NewMatrix32(f.outs, f.outs)
			ref.OuterLerp(sq64, f.act64, f.act64, 0.02)
			be.OuterLerp(sq32, f.act32, f.act32, 0.02)
			if d := maxAbsDiff32(sq64.Data, sq32.Data); d > 1e-5 {
				t.Fatalf("OuterLerp diverges by %g", d)
			}
		})
	}
}

func TestNames32Coverage(t *testing.T) {
	have := map[string]bool{}
	for _, n := range Names32() {
		have[n] = true
	}
	for _, want := range []string{"naive", "parallel", "fused", "gpusim"} {
		if !have[want] {
			t.Fatalf("backend %q missing a float32 kernel set (have %v)", want, Names32())
		}
	}
	if have["fpgasim"] {
		t.Fatal("fpgasim must not register a float32 kernel set (its numerics are posit-defined)")
	}
	if _, err := New32("fpgasim", 1); err == nil {
		t.Fatal("New32(fpgasim) should fail")
	}
}
