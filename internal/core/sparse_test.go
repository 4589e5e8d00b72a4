package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streambrain/internal/backend"
	"streambrain/internal/tensor"
)

func sparseParams() Params {
	p := smallParams()
	p.SparseCompute = true
	p.TargetSparsity = 0.75
	return p
}

// maskPopcountPerHCU verifies the exactly-K-per-HCU invariant and returns K.
func maskPopcountPerHCU(t *testing.T, n *Network) int {
	t.Helper()
	l := n.Hidden
	k := -1
	for h := 0; h < l.H; h++ {
		c := 0
		for fi := 0; fi < l.Fi; fi++ {
			if l.Mask[fi*l.H+h] {
				c++
			}
		}
		if k < 0 {
			k = c
		} else if c != k {
			t.Fatalf("HCU %d has %d active inputs, HCU 0 has %d", h, c, k)
		}
	}
	return k
}

// TestSparseScheduleReachesTarget: the prune/regrow schedule must anneal K
// from round(RF·Fi) down to round((1−TargetSparsity)·Fi) by the end of the
// unsupervised phase, keeping exactly K active inputs per HCU throughout, and
// the layer's block index must agree with the mask it was built from.
func TestSparseScheduleReachesTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	p := sparseParams()
	p.Seed = 40
	train := synthEncoded(rng, 600, 8, 4, []int{1, 5}, 0.1)
	n := NewNetwork(backend.MustNew("parallel", 2), 8, 4, 2, p)
	n.TrainUnsupervised(train, p.UnsupervisedEpochs)

	wantK := receptiveK(1-p.TargetSparsity, 8)
	if n.Hidden.K != wantK {
		t.Fatalf("schedule left K=%d, want %d", n.Hidden.K, wantK)
	}
	if got := maskPopcountPerHCU(t, n); got != wantK {
		t.Fatalf("mask popcount %d disagrees with K=%d", got, wantK)
	}
	bi := n.Hidden.Blocks()
	if bi.ActiveBlocks() != wantK*p.HCUs {
		t.Fatalf("block index has %d active blocks, want %d", bi.ActiveBlocks(), wantK*p.HCUs)
	}
	wantSparsity := 1 - float64(wantK)/8
	if s := bi.Sparsity(); s != wantSparsity {
		t.Fatalf("block sparsity %v, want %v", s, wantSparsity)
	}
}

// TestSparseSaveLoadRoundTripsBlocks: after the prune/regrow schedule has
// mutated the mask mid-training, Save/Load must round-trip the mask, restore
// K from it, and rebuild an identical block index — and sparse-path
// predictions must be unchanged across the round trip onto a different
// backend.
func TestSparseSaveLoadRoundTripsBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := sparseParams()
	p.Seed = 41
	train := synthEncoded(rng, 600, 8, 4, []int{1, 5}, 0.1)
	test := synthEncoded(rng, 150, 8, 4, []int{1, 5}, 0.1)
	n := NewNetwork(backend.MustNew("naive", 0), 8, 4, 2, p)
	n.Train(train)
	if n.Hidden.K == receptiveK(p.ReceptiveField, 8) {
		t.Fatal("schedule did not change K; round trip would not exercise restore")
	}
	predBefore, scoreBefore := n.Predict(test)

	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, backend.MustNew("parallel", 2))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Hidden.SparseCompute() {
		t.Fatal("SparseCompute flag lost in round trip")
	}
	if loaded.Hidden.K != n.Hidden.K {
		t.Fatalf("K %d after load, want %d", loaded.Hidden.K, n.Hidden.K)
	}
	for i, on := range n.Hidden.Mask {
		if loaded.Hidden.Mask[i] != on {
			t.Fatalf("mask bit %d changed in round trip", i)
		}
	}
	if !loaded.Hidden.Blocks().Equal(n.Hidden.Blocks()) {
		t.Fatal("rebuilt block index differs from the original")
	}
	if !statesEqual(n, loaded, 1e-12) {
		t.Fatal("derived parameters differ after round trip")
	}
	predAfter, scoreAfter := loaded.Predict(test)
	for i := range predBefore {
		if predBefore[i] != predAfter[i] {
			t.Fatalf("prediction changed at %d after reload", i)
		}
		if d := scoreBefore[i] - scoreAfter[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("score changed at %d: %v vs %v", i, scoreBefore[i], scoreAfter[i])
		}
	}
}

// TestSparseResumeDeterministic: two Loads of the same snapshot must follow
// bit-identical subsequent trajectories — including further prune/regrow
// steps, whose regrowth picks are RNG-driven. This is the seed-pinning
// contract: Load re-derives the training RNG from the saved seed, so the
// resumed mask evolution, block index, weights and predictions are all a
// deterministic function of the snapshot.
func TestSparseResumeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := sparseParams()
	p.Seed = 42
	// Stretch the schedule past the first training run so the resumed epochs
	// still have pruning (and its regrow counterpart) left to do.
	p.SparsityEpochs = p.UnsupervisedEpochs + 2
	train := synthEncoded(rng, 600, 8, 4, []int{1, 5}, 0.1)
	test := synthEncoded(rng, 150, 8, 4, []int{1, 5}, 0.1)
	n := NewNetwork(backend.MustNew("naive", 0), 8, 4, 2, p)
	n.TrainUnsupervised(train, p.UnsupervisedEpochs)

	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	a, err := Load(bytes.NewReader(snap), backend.MustNew("naive", 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load(bytes.NewReader(snap), backend.MustNew("parallel", 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Network{a, b} {
		m.TrainUnsupervised(train, p.UnsupervisedEpochs)
		m.TrainSupervised(train, p.SupervisedEpochs)
		m.CalibrateThreshold(train)
	}
	for i, on := range a.Hidden.Mask {
		if b.Hidden.Mask[i] != on {
			t.Fatalf("resumed masks diverge at bit %d", i)
		}
	}
	if a.Hidden.K != b.Hidden.K {
		t.Fatalf("resumed K diverges: %d vs %d", a.Hidden.K, b.Hidden.K)
	}
	if !a.Hidden.Blocks().Equal(b.Hidden.Blocks()) {
		t.Fatal("resumed block indexes diverge")
	}
	if !statesEqual(a, b, 0) {
		t.Fatal("resumed derived parameters diverge")
	}
	predA, scoreA := a.Predict(test)
	predB, scoreB := b.Predict(test)
	for i := range predA {
		if predA[i] != predB[i] {
			t.Fatalf("resumed predictions diverge at %d", i)
		}
		// The readout's score normalization is backend-parallelized, so allow
		// the same last-ulp slack the dense round-trip tests use.
		if d := scoreA[i] - scoreB[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("resumed scores diverge at %d: %v vs %v", i, scoreA[i], scoreB[i])
		}
	}
}

// TestSparseParamsValidation: the sparse-schedule knobs reject inconsistent
// settings.
func TestSparseParamsValidation(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.TargetSparsity = -0.1 },
		func(p *Params) { p.TargetSparsity = 1.0 },
		func(p *Params) { p.SparsityEpochs = -1 },
	}
	for i, mut := range bad {
		p := sparseParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
	// Valid: the sparse regime itself, and the dense-compute twin that runs
	// the same prune/regrow schedule on the masked kernels (E10's reference).
	p := sparseParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid sparse params rejected: %v", err)
	}
	p.SparseCompute = false
	if err := p.Validate(); err != nil {
		t.Fatalf("dense-compute schedule twin rejected: %v", err)
	}
}

// silentNonZero returns the first element of m in a silent block of l's mask
// that is not +0.
func silentNonZero[T tensor.Float](l *HiddenLayer, m *tensor.Dense[T]) (r, c int, ok bool) {
	for r = 0; r < m.Rows; r++ {
		for c = 0; c < m.Cols; c++ {
			v := float64(m.At(r, c))
			if !l.Mask[(r/l.Mi)*l.H+c/l.M] && (v != 0 || math.Signbit(v)) {
				return r, c, true
			}
		}
	}
	return 0, 0, false
}

// checkSilentZeros asserts the invariant the block-indexed kernels rely on
// (DESIGN.md §15): Blocks() is the index of the current mask, and every
// silent block of W — and, after a forward pass has recast it, of the
// float32 image — holds exact +0.
func checkSilentZeros(t *testing.T, when string, l *HiddenLayer, idx [][]int32) {
	t.Helper()
	if !l.Blocks().Equal(tensor.NewBlockIndex(l.Mask, l.Fi, l.Mi, l.H, l.M)) {
		t.Fatalf("after %s: Blocks() does not match the mask", when)
	}
	l.Forward(idx, tensor.NewMatrix(len(idx), l.Units()))
	if r, c, bad := silentNonZero(l, l.W); bad {
		t.Fatalf("after %s: silent W(%d,%d) = %v, want +0", when, r, c, l.W.At(r, c))
	}
	if l.w32 != nil {
		if r, c, bad := silentNonZero(l, l.w32); bad {
			t.Fatalf("after %s: silent w32(%d,%d) = %v, want +0", when, r, c, l.w32.At(r, c))
		}
	}
}

// TestSilentBlocksStayZero checks the silent-zero invariant after every
// operation that builds or changes the receptive field, and after training
// steps and trace merges that must not disturb it: on the composed
// (parallel) and fused backends, in both compute regimes, at both
// precisions.
func TestSilentBlocksStayZero(t *testing.T) {
	const fi, mi = 8, 4
	train := synthEncoded(rand.New(rand.NewSource(61)), 256, fi, mi, []int{1, 5}, 0.1)
	probe := train.Idx[:4]
	for _, name := range []string{"parallel", "fused"} {
		for _, sparse := range []bool{false, true} {
			for _, prec := range []Precision{Float64, Float32} {
				t.Run(fmt.Sprintf("%s/sparse=%v/%s", name, sparse, prec), func(t *testing.T) {
					p := smallParams()
					p.SparseCompute = sparse
					p.Precision = prec
					p.SwapMargin = 0
					p.UnsupervisedEpochs, p.SupervisedEpochs = 1, 1
					n := NewNetwork(backend.MustNew(name, 2), fi, mi, 2, p)
					l := n.Hidden
					checkSilentZeros(t, "construction", l, probe)
					l.SetNoise(0.3)
					for b := 0; b+32 <= train.Len(); b += 32 {
						l.TrainBatch(train.Idx[b : b+32])
					}
					checkSilentZeros(t, "TrainBatch", l, probe)
					if len(l.StructuralUpdate()) == 0 {
						t.Fatal("StructuralUpdate made no swap; the check would not cover it")
					}
					checkSilentZeros(t, "StructuralUpdate", l, probe)
					l.PruneRegrow(l.K-1, 1)
					checkSilentZeros(t, "PruneRegrow", l, probe)
					field := l.ReceptiveField(0)
					l.SetReceptiveField(0, append(field[1:], field[0]))
					checkSilentZeros(t, "SetReceptiveField", l, probe)

					var buf bytes.Buffer
					if err := n.Save(&buf); err != nil {
						t.Fatal(err)
					}
					loaded, err := Load(&buf, backend.MustNew(name, 2))
					if err != nil {
						t.Fatal(err)
					}
					checkSilentZeros(t, "Load", loaded.Hidden, probe)

					dt := NewDistributedTrainer(2, name, 1, fi, mi, 2, p, train)
					if _, err := dt.Train(1, 0); err != nil {
						t.Fatal(err)
					}
					for r, rn := range dt.Networks() {
						checkSilentZeros(t, fmt.Sprintf("TrainRank merge (rank %d)", r), rn.Hidden, probe)
					}
				})
			}
		}
	}
}
