package sgd

import (
	"math"
	"math/rand"
	"testing"

	"streambrain/internal/tensor"
)

// blobs generates two Gaussian clusters, linearly separable by `margin`.
func blobs(rng *rand.Rand, n int, margin float64) (*tensor.Matrix, []int) {
	x := tensor.NewMatrix(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(2)
		y[i] = c
		shift := -margin
		if c == 1 {
			shift = margin
		}
		x.Set(i, 0, rng.NormFloat64()+shift)
		x.Set(i, 1, rng.NormFloat64())
	}
	return x, y
}

func trainEpochs(s *Softmax, x *tensor.Matrix, y []int, epochs, batch int, rng *rand.Rand) {
	n := x.Rows
	for e := 0; e < epochs; e++ {
		perm := rng.Perm(n)
		for lo := 0; lo < n; lo += batch {
			hi := lo + batch
			if hi > n {
				hi = n
			}
			bx := tensor.NewMatrix(hi-lo, x.Cols)
			by := make([]int, hi-lo)
			for i := lo; i < hi; i++ {
				copy(bx.Row(i-lo), x.Row(perm[i]))
				by[i-lo] = y[perm[i]]
			}
			s.TrainBatch(bx, by)
		}
	}
}

func accuracy(s *Softmax, x *tensor.Matrix, y []int) float64 {
	probs := tensor.NewMatrix(x.Rows, s.Classes())
	s.Scores(x, probs)
	correct := 0
	for r := range y {
		if tensor.ArgMaxRow(probs.Row(r)) == y[r] {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}

func TestSoftmaxLearnsBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := blobs(rng, 1000, 2.0)
	s := NewSoftmax(2, 2, DefaultConfig(), rng)
	trainEpochs(s, x, y, 20, 32, rng)
	if acc := accuracy(s, x, y); acc < 0.95 {
		t.Fatalf("accuracy %.3f on 2σ-separated blobs", acc)
	}
}

func TestLossDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := blobs(rng, 500, 1.0)
	s := NewSoftmax(2, 2, DefaultConfig(), rng)
	before := s.Loss(x, y)
	trainEpochs(s, x, y, 10, 32, rng)
	after := s.Loss(x, y)
	if after >= before {
		t.Fatalf("loss did not decrease: %.4f -> %.4f", before, after)
	}
}

func TestScoresAreProbabilities(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := blobs(rng, 100, 1.0)
	s := NewSoftmax(2, 2, DefaultConfig(), rng)
	trainEpochs(s, x, y, 3, 16, rng)
	probs := tensor.NewMatrix(x.Rows, 2)
	s.Scores(x, probs)
	for r := 0; r < x.Rows; r++ {
		row := probs.Row(r)
		if row[0] < 0 || row[1] < 0 || math.Abs(row[0]+row[1]-1) > 1e-9 {
			t.Fatalf("row %d not a distribution: %v", r, row)
		}
	}
}

func TestL2ShrinksWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := blobs(rng, 400, 3.0)
	weak := DefaultConfig()
	weak.L2 = 0
	strong := DefaultConfig()
	strong.L2 = 0.5
	s1 := NewSoftmax(2, 2, weak, rand.New(rand.NewSource(5)))
	s2 := NewSoftmax(2, 2, strong, rand.New(rand.NewSource(5)))
	trainEpochs(s1, x, y, 15, 32, rand.New(rand.NewSource(6)))
	trainEpochs(s2, x, y, 15, 32, rand.New(rand.NewSource(6)))
	norm := func(m *tensor.Matrix) float64 {
		var s float64
		for _, v := range m.Data {
			s += v * v
		}
		return s
	}
	if norm(s2.W) >= norm(s1.W) {
		t.Fatalf("L2=0.5 weights (%.4f) not smaller than L2=0 (%.4f)",
			norm(s2.W), norm(s1.W))
	}
}

func TestTrainBatchMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSoftmax(2, 2, DefaultConfig(), rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.TrainBatch(tensor.NewMatrix(3, 2), []int{0})
}

func TestMulticlass(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 900
	x := tensor.NewMatrix(n, 2)
	y := make([]int, n)
	centers := [][2]float64{{0, 3}, {-3, -2}, {3, -2}}
	for i := 0; i < n; i++ {
		c := rng.Intn(3)
		y[i] = c
		x.Set(i, 0, rng.NormFloat64()*0.7+centers[c][0])
		x.Set(i, 1, rng.NormFloat64()*0.7+centers[c][1])
	}
	s := NewSoftmax(2, 3, DefaultConfig(), rng)
	trainEpochs(s, x, y, 25, 32, rng)
	if acc := accuracy(s, x, y); acc < 0.9 {
		t.Fatalf("3-class accuracy %.3f", acc)
	}
}

// TestTrainBatchAllocatesNothing: the step's probabilities and gradients
// live in scratch kept across steps, and a smaller batch reuses it; reusing
// it leaves the trajectory of a readout that starts from fresh scratch.
func TestTrainBatchAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := blobs(rng, 128, 1)
	s := NewSoftmax(2, 2, DefaultConfig(), rand.New(rand.NewSource(6)))
	fresh := NewSoftmax(2, 2, DefaultConfig(), rand.New(rand.NewSource(6)))
	small := tensor.FromSlice(40, 2, x.Data[:80])
	for step := range 4 {
		s.TrainBatch(x, y)
		s.TrainBatch(small, y[:40])
		fresh.probs, fresh.gradW, fresh.gradB = nil, nil, nil
		fresh.TrainBatch(x, y)
		fresh.probs, fresh.gradW, fresh.gradB = nil, nil, nil
		fresh.TrainBatch(small, y[:40])
		for i, w := range s.W.Data {
			if math.Float64bits(w) != math.Float64bits(fresh.W.Data[i]) {
				t.Fatalf("step %d: W[%d] %v with reused scratch, %v with fresh", step, i, w, fresh.W.Data[i])
			}
		}
	}
	if a := testing.AllocsPerRun(20, func() { s.TrainBatch(x, y) }); a != 0 {
		t.Fatalf("TrainBatch allocates %v times per step", a)
	}
}
