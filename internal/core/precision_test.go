package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"streambrain/internal/backend"
	"streambrain/internal/data"
	"streambrain/internal/tensor"
)

// precisionFixture prepares the separable synthetic task (the same geometry
// the package integration test learns on) plus the params that solve it.
func precisionFixture() (train, test *data.Encoded, p Params) {
	rng := rand.New(rand.NewSource(10))
	p = smallParams()
	p.HCUs = 2
	p.MCUs = 10
	p.ReceptiveField = 0.6
	p.UnsupervisedEpochs = 6
	p.SupervisedEpochs = 6
	p.Taupdt = 0.05
	train = synthEncoded(rng, 2000, 10, 4, []int{1, 4, 8}, 0.15)
	test = synthEncoded(rng, 600, 10, 4, []int{1, 4, 8}, 0.15)
	return train, test, p
}

// TestFloat32PrecisionTracksFloat64 trains the same configuration on both
// compute paths and checks the reduced-precision model stays within the
// paper-level tolerance of the full-precision one — the unit-scale version
// of the experiments precision ablation.
func TestFloat32PrecisionTracksFloat64(t *testing.T) {
	train, test, p64 := precisionFixture()
	n64 := NewNetwork(backend.MustNew("parallel", 4), 10, 4, 2, p64)
	n64.Train(train)
	acc64, auc64 := n64.Evaluate(test)

	_, _, p32 := precisionFixture()
	p32.Precision = Float32
	n32 := NewNetwork(backend.MustNew("parallel", 4), 10, 4, 2, p32)
	if !n32.Hidden.Precision32() {
		t.Fatal("Precision=float32 did not select the reduced-precision path")
	}
	n32.Train(train)
	acc32, auc32 := n32.Evaluate(test)

	if auc64 < 0.85 {
		t.Fatalf("float64 baseline failed to learn: AUC %.3f", auc64)
	}
	if d := math.Abs(auc64 - auc32); d > 0.01 {
		t.Fatalf("float32 AUC %.4f deviates from float64 AUC %.4f by %.4f", auc32, auc64, d)
	}
	if d := math.Abs(acc64 - acc32); d > 0.02 {
		t.Fatalf("float32 accuracy %.4f deviates from float64 %.4f by %.4f", acc32, acc64, d)
	}
}

// TestFloat32OnLayerStepperTrainsAtFloat64 pins what Precision = Float32
// means for training (DESIGN.md §9): TrainBatch runs the float64 LayerStep
// on every backend, so the hidden layer's learning state is bit-identical
// to a Float64 run and only the forward passes outside that step (readout
// inputs, prediction) run at float32.
func TestFloat32OnLayerStepperTrainsAtFloat64(t *testing.T) {
	hidden := func(name string, prec Precision) *HiddenLayer {
		train, _, p := precisionFixture()
		p.Precision = prec
		n := NewNetwork(backend.MustNew(name, 2), 10, 4, 2, p)
		n.TrainUnsupervised(train, 2)
		return n.Hidden
	}
	for _, name := range backend.Names32() {
		a, b := hidden(name, Float32), hidden(name, Float64)
		if a.W.MaxAbsDiff(b.W) != 0 || a.Cij.MaxAbsDiff(b.Cij) != 0 ||
			!slices.Equal(a.Kbi, b.Kbi) || !slices.Equal(a.Bias, b.Bias) {
			t.Errorf("%s: Float32 hidden state differs from Float64", name)
		}
	}
}

// TestForward32MatchesForward checks the float32 fast path (no up-cast)
// agrees with the Forward wrapper that serves the float64 API.
func TestForward32MatchesForward(t *testing.T) {
	train, _, p := precisionFixture()
	p.Precision = Float32
	n := NewNetwork(backend.MustNew("naive", 1), 10, 4, 2, p)
	n.TrainUnsupervised(train, 1)

	idx := train.Idx[:16]
	units := n.Hidden.Units()
	out64 := tensor.NewMatrix(len(idx), units)
	n.Hidden.Forward(idx, out64)
	out32 := tensor.NewMatrix32(len(idx), units)
	n.Hidden.Forward32(idx, out32)
	for i := range out64.Data {
		if d := math.Abs(out64.Data[i] - float64(out32.Data[i])); d > 1e-6 {
			t.Fatalf("Forward and Forward32 disagree at %d by %g", i, d)
		}
	}
}

// TestPrecisionRoundTripsThroughSaveLoad checks a reduced-precision model
// keeps its compute path (and its predictions) across serialization.
func TestPrecisionRoundTripsThroughSaveLoad(t *testing.T) {
	train, test, p := precisionFixture()
	p.Precision = Float32
	n := NewNetwork(backend.MustNew("parallel", 2), 10, 4, 2, p)
	n.Train(train)

	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := Load(&buf, backend.MustNew("parallel", 2))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if loaded.Params().Precision != Float32 {
		t.Fatalf("loaded precision %q, want %q", loaded.Params().Precision, Float32)
	}
	if !loaded.Hidden.Precision32() {
		t.Fatal("loaded network lost the float32 compute path")
	}
	wantPred, wantScore := n.Predict(test)
	gotPred, gotScore := loaded.Predict(test)
	for i := range wantPred {
		if wantPred[i] != gotPred[i] {
			t.Fatalf("prediction %d changed across round trip", i)
		}
		if math.Abs(wantScore[i]-gotScore[i]) > 1e-9 {
			t.Fatalf("score %d changed across round trip", i)
		}
	}
}

// TestFloat32RequiresKernelSet checks the error paths for backends without
// float32 kernels: NewNetwork panics, Load reports a descriptive error.
func TestFloat32RequiresKernelSet(t *testing.T) {
	train, _, p := precisionFixture()
	p.Precision = Float32

	n := NewNetwork(backend.MustNew("parallel", 1), 10, 4, 2, p)
	n.TrainUnsupervised(train, 1)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	if _, err := Load(&buf, backend.MustNew("fpgasim", 1)); err == nil {
		t.Fatal("loading a float32 model onto fpgasim should fail")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("NewNetwork with fpgasim + float32 should panic")
		}
	}()
	NewNetwork(backend.MustNew("fpgasim", 1), 10, 4, 2, p)
}
