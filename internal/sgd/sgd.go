// Package sgd implements mini-batch softmax regression trained by
// stochastic gradient descent with momentum and L2 regularization. It is
// the "SGD" half of the paper's hybrid mode: StreamBrain combines the
// unsupervised BCPNN hidden layer with an SGD-trained classification layer
// ("the mixed BCPNN+SGD solution", §III; "combining unsupervised learning
// in StreamBrain with SGD reaches 69.15%", §V-A). The type satisfies
// core.Readout so it can be dropped into a Network in place of the pure
// BCPNN classifier.
package sgd

import (
	"math"
	"math/rand"

	"streambrain/internal/tensor"
)

// Config holds the optimizer hyperparameters.
type Config struct {
	// LearningRate is the SGD step size.
	LearningRate float64
	// Momentum is the classical momentum coefficient (0 disables).
	Momentum float64
	// L2 is the weight-decay coefficient.
	L2 float64
	// InitScale is the standard deviation of the random weight init.
	InitScale float64
}

// DefaultConfig returns the settings used by the hybrid experiments.
func DefaultConfig() Config {
	return Config{LearningRate: 0.1, Momentum: 0.9, L2: 1e-4, InitScale: 0.01}
}

// Softmax is a linear softmax classifier: logits = xW + b.
type Softmax struct {
	in, classes int
	cfg         Config

	W  *tensor.Matrix
	B  []float64
	vw *tensor.Matrix // momentum buffers
	vb []float64

	// TrainBatch scratch, kept across steps so a step allocates nothing.
	probs, gradW *tensor.Matrix
	gradB        []float64
}

// NewSoftmax builds a classifier from `in` features to `classes` classes.
func NewSoftmax(in, classes int, cfg Config, rng *rand.Rand) *Softmax {
	s := &Softmax{
		in: in, classes: classes, cfg: cfg,
		W:  tensor.NewMatrix(in, classes),
		B:  make([]float64, classes),
		vw: tensor.NewMatrix(in, classes),
		vb: make([]float64, classes),
	}
	for i := range s.W.Data {
		s.W.Data[i] = cfg.InitScale * rng.NormFloat64()
	}
	return s
}

// Classes implements core.Readout.
func (s *Softmax) Classes() int { return s.classes }

// Logits writes xW + b into out.
func (s *Softmax) Logits(x *tensor.Matrix, out *tensor.Matrix) {
	if x.Cols != s.in || out.Rows != x.Rows || out.Cols != s.classes {
		panic("sgd: Logits shape mismatch")
	}
	tensor.MatMulBlocked(out, x, s.W, 0)
	for r := 0; r < out.Rows; r++ {
		row := out.Row(r)
		for c, b := range s.B {
			row[c] += b
		}
	}
}

// Scores implements core.Readout: class probabilities.
func (s *Softmax) Scores(x *tensor.Matrix, out *tensor.Matrix) {
	s.Logits(x, out)
	tensor.SoftmaxGroups(out, 1, s.classes, 1)
}

// TrainBatch implements core.Readout: one SGD step on the batch's mean
// cross-entropy gradient.
func (s *Softmax) TrainBatch(x *tensor.Matrix, labels []int) {
	if x.Rows != len(labels) {
		panic("sgd: TrainBatch batch mismatch")
	}
	b := x.Rows
	s.probs = tensor.Resize(s.probs, b, s.classes)
	probs := s.probs
	s.Scores(x, probs)
	// grad_logits = (p − y)/B
	for r := 0; r < b; r++ {
		row := probs.Row(r)
		row[labels[r]] -= 1
		tensor.Scale(1/float64(b), row)
	}
	// gradW = xᵀ·grad + λW; gradB = column sums of grad.
	s.gradW = tensor.Resize(s.gradW, s.in, s.classes)
	gradW := s.gradW
	tensor.MatMulATB(gradW, x, probs)
	if s.cfg.L2 > 0 {
		tensor.Axpy(s.cfg.L2, s.W.Data, gradW.Data)
	}
	if s.gradB == nil {
		s.gradB = make([]float64, s.classes)
	}
	gradB := s.gradB
	clear(gradB)
	for r := 0; r < b; r++ {
		row := probs.Row(r)
		for c, v := range row {
			gradB[c] += v
		}
	}
	// Momentum update: v = μv − ηg; θ += v.
	mu, lr := s.cfg.Momentum, s.cfg.LearningRate
	for i := range s.vw.Data {
		s.vw.Data[i] = mu*s.vw.Data[i] - lr*gradW.Data[i]
		s.W.Data[i] += s.vw.Data[i]
	}
	for c := range s.vb {
		s.vb[c] = mu*s.vb[c] - lr*gradB[c]
		s.B[c] += s.vb[c]
	}
}

// Loss returns the mean cross-entropy of the classifier on (x, labels) —
// used by convergence tests.
func (s *Softmax) Loss(x *tensor.Matrix, labels []int) float64 {
	probs := tensor.NewMatrix(x.Rows, s.classes)
	s.Scores(x, probs)
	var nll float64
	for r, y := range labels {
		p := probs.At(r, y)
		if p < 1e-15 {
			p = 1e-15
		}
		nll -= math.Log(p)
	}
	return nll / float64(len(labels))
}
