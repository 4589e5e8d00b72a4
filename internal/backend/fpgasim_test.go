package backend

import (
	"math/rand"
	"testing"

	"streambrain/internal/posit"
	"streambrain/internal/tensor"
)

func TestFPGASimRegistered(t *testing.T) {
	be := MustNew("fpgasim", 2)
	if be.Name() != "fpgasim" || be.Workers() != 2 {
		t.Fatalf("bad fpgasim instance: %s/%d", be.Name(), be.Workers())
	}
}

func TestFPGASimWeightsArePositValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const fi, mi, h, m = 4, 3, 2, 5
	in, units := fi*mi, h*m
	ci := make([]float64, in)
	cj := make([]float64, units)
	for i := range ci {
		ci[i] = 0.05 + 0.9*rng.Float64()
	}
	for j := range cj {
		cj[j] = 0.05 + 0.9*rng.Float64()
	}
	cij := randProbMat(rng, in, units)
	f := NewFPGASim(2, posit.Posit16)
	w := tensor.NewMatrix(in, units)
	f.UpdateWeights(w, ci, cj, cij, nil, 1e-9)
	for i, v := range w.Data {
		if q := posit.Posit16.Quantize(v); q != v {
			t.Fatalf("weight %d = %v is not a posit16 value (requantizes to %v)", i, v, q)
		}
	}
	bias := make([]float64, units)
	kbi := make([]float64, units)
	for j := range kbi {
		kbi[j] = 1
	}
	f.UpdateBias(bias, kbi, cj, 1e-9)
	for j, v := range bias {
		if q := posit.Posit16.Quantize(v); q != v {
			t.Fatalf("bias %d = %v is not a posit16 value", j, v)
		}
	}
}

func TestFPGASimCloseToParallel(t *testing.T) {
	// Posit16 weights must track the float64 weights to ~1e-3 relative —
	// close enough that kernels agree within tolerance on a forward pass.
	rng := rand.New(rand.NewSource(2))
	const in, units = 12, 10
	ci := make([]float64, in)
	cj := make([]float64, units)
	for i := range ci {
		ci[i] = 0.05 + 0.9*rng.Float64()
	}
	for j := range cj {
		cj[j] = 0.05 + 0.9*rng.Float64()
	}
	cij := randProbMat(rng, in, units)
	ref := tensor.NewMatrix(in, units)
	MustNew("parallel", 2).UpdateWeights(ref, ci, cj, cij, nil, 1e-9)
	got := tensor.NewMatrix(in, units)
	NewFPGASim(2, posit.Posit16).UpdateWeights(got, ci, cj, cij, nil, 1e-9)
	if d := got.MaxAbsDiff(ref); d > 5e-3 {
		t.Fatalf("posit16 weights deviate by %g", d)
	}
	// posit8 deviates more — and must still be finite and ordered.
	got8 := tensor.NewMatrix(in, units)
	NewFPGASim(2, posit.Posit8).UpdateWeights(got8, ci, cj, cij, nil, 1e-9)
	d8 := got8.MaxAbsDiff(ref)
	d16 := got.MaxAbsDiff(ref)
	if d8 <= d16 {
		t.Fatalf("posit8 error %g not larger than posit16 error %g", d8, d16)
	}
}

func TestFPGASimComputeKernelsDelegate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 9, 7)
	b := randMat(rng, 7, 5)
	want := tensor.NewMatrix(9, 5)
	MustNew("naive", 0).MatMul(want, a, b)
	got := tensor.NewMatrix(9, 5)
	MustNew("fpgasim", 2).MatMul(got, a, b)
	if d := got.MaxAbsDiff(want); d > 1e-12 {
		t.Fatalf("fpgasim MatMul diff %g (compute kernels must not quantize)", d)
	}
}

// TestFPGASimPipelineModel checks the streaming-pipeline cost model: a fused
// LayerStep is one launch whose cycle cost is bounded by its busiest dataflow
// stage (the stages overlap), while composed kernels serialize — their stage
// cycles land additively on the total.
func TestFPGASimPipelineModel(t *testing.T) {
	f := NewFPGASim(2, posit.Posit16)
	s := newLayerState[float64](rand.New(rand.NewSource(4)), 8, true, false)
	s.step(f)
	p := f.Pipeline()
	if p.Steps != 1 || p.KernelLaunches != 1 {
		t.Fatalf("fused step: steps=%d launches=%d, want 1/1", p.Steps, p.KernelLaunches)
	}
	var peak, sum int64
	for st := 0; st < numStages; st++ {
		if p.StageOps[st] <= 0 {
			t.Fatalf("stage %s recorded no ops", StageName(st))
		}
		if p.StageCycles[st] != p.StageOps[st] {
			t.Fatalf("stage %s: cycles %d != ops %d at II=1", StageName(st), p.StageCycles[st], p.StageOps[st])
		}
		if p.StageCycles[st] > peak {
			peak = p.StageCycles[st]
		}
		sum += p.StageCycles[st]
	}
	if p.TotalCycles != peak {
		t.Fatalf("fused TotalCycles = %d, want busiest stage %d (stages stream concurrently)",
			p.TotalCycles, peak)
	}
	// Occupancy of the busiest stage is 1; every occupancy is in (0, 1].
	for st := 0; st < numStages; st++ {
		occ := p.Occupancy(st)
		if occ <= 0 || occ > 1 {
			t.Fatalf("stage %s occupancy %g out of range", StageName(st), occ)
		}
	}

	// The composed sequence for the same update serializes: its total is the
	// sum of its stage cycles, so the same work costs strictly more device
	// time than the fused pipeline's max.
	f.ResetPipeline()
	s.composed(f)
	c := f.Pipeline()
	if c.Steps != 0 {
		t.Fatalf("composed sequence counted %d fused steps", c.Steps)
	}
	if c.KernelLaunches <= 1 {
		t.Fatalf("composed launches = %d, want > 1", c.KernelLaunches)
	}
	var csum int64
	for st := 0; st < numStages; st++ {
		csum += c.StageCycles[st]
	}
	if c.TotalCycles != csum {
		t.Fatalf("composed TotalCycles = %d, want additive %d", c.TotalCycles, csum)
	}
	if c.TotalCycles <= peak {
		t.Fatalf("composed cycles %d not above fused pipeline bound %d", c.TotalCycles, peak)
	}
}

func TestNewFPGASimInvalidFormatPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFPGASim(1, posit.Format{Bits: 64, ES: 1})
}
