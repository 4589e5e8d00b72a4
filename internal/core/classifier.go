package core

import (
	"math/rand"

	"streambrain/internal/backend"
	"streambrain/internal/tensor"
)

// Readout is a supervised classification head over the hidden activation
// code. Two implementations exist: the pure-BCPNN Classifier below and the
// SGD softmax regression in internal/sgd (the paper's "BCPNN+SGD" hybrid
// that reaches 69.15% accuracy / 76.4% AUC).
type Readout interface {
	// TrainBatch performs one supervised update on a batch of hidden
	// activations with integer class labels.
	TrainBatch(act *tensor.Matrix, labels []int)
	// Scores writes class probabilities for each row of act into out
	// (batch × Classes).
	Scores(act *tensor.Matrix, out *tensor.Matrix)
	// Classes returns the number of output classes.
	Classes() int
}

// Classifier is the supervised BCPNN output layer: a single output
// hypercolumn whose MCUs are the classes. It trains with exactly the same
// trace rule as the hidden layer, except the output activity is clamped to
// the one-hot teacher signal (supervised BCPNN, paper §II-C "uses only
// supervised learning in the classification layer").
type Classifier struct {
	be      backend.Backend
	in      int
	classes int

	W    *tensor.Matrix // in×classes
	Bias []float64
	Kbi  []float64
	Ci   []float64
	Cj   []float64
	Cij  *tensor.Matrix

	p Params

	meanAct []float64
	meanLab []float64
	teacher *tensor.Matrix // TrainBatch's one-hot labels, reused across steps
}

var _ Readout = (*Classifier)(nil)

// NewClassifier builds a BCPNN readout from `in` hidden units to `classes`
// classes.
func NewClassifier(be backend.Backend, in, classes int, p Params, rng *rand.Rand) *Classifier {
	c := &Classifier{
		be: be, in: in, classes: classes,
		W:       tensor.NewMatrix(in, classes),
		Bias:    make([]float64, classes),
		Kbi:     make([]float64, classes),
		Ci:      make([]float64, in),
		Cj:      make([]float64, classes),
		Cij:     tensor.NewMatrix(in, classes),
		p:       p,
		meanAct: make([]float64, in),
		meanLab: make([]float64, classes),
	}
	// Priors: hidden units carry 1/M of their HCU's mass; classes start
	// uniform. Small jitter breaks ties.
	pj := 1 / float64(classes)
	for j := range c.Cj {
		c.Cj[j] = pj
		c.Kbi[j] = 1
	}
	for i := range c.Ci {
		c.Ci[i] = pj // neutral prior; converges to the true marginal quickly
	}
	for i := 0; i < in; i++ {
		row := c.Cij.Row(i)
		for j := range row {
			row[j] = c.Ci[i] * pj * (1 + p.InitNoise*(rng.Float64()-0.5))
		}
	}
	c.refresh()
	return c
}

// Classes implements Readout.
func (c *Classifier) Classes() int { return c.classes }

func (c *Classifier) refresh() {
	// The readout is fully connected: no mask.
	c.be.UpdateWeights(c.W, c.Ci, c.Cj, c.Cij, nil, c.p.Eps)
	c.be.UpdateBias(c.Bias, c.Kbi, c.Cj, c.p.Eps)
}

// TrainBatch implements Readout: one BCPNN trace step with the teacher
// signal as the output activity.
func (c *Classifier) TrainBatch(act *tensor.Matrix, labels []int) {
	if act.Rows != len(labels) || act.Cols != c.in {
		panic("core: Classifier.TrainBatch shape mismatch")
	}
	c.teacher = tensor.Resize(c.teacher, len(labels), c.classes)
	teacher := c.teacher
	for s, y := range labels {
		teacher.Set(s, y, 1)
	}
	t := c.p.Taupdt
	tensor.ColMeans(c.meanAct, act)
	c.be.Lerp(c.Ci, c.meanAct, t)
	tensor.ColMeans(c.meanLab, teacher)
	c.be.Lerp(c.Cj, c.meanLab, t)
	c.be.OuterLerp(c.Cij, act, teacher, t)
	c.refresh()
}

// Scores implements Readout: support followed by a class softmax.
func (c *Classifier) Scores(act *tensor.Matrix, out *tensor.Matrix) {
	if out.Rows != act.Rows || out.Cols != c.classes {
		panic("core: Classifier.Scores shape mismatch")
	}
	c.be.MatMul(out, act, c.W)
	c.be.AddBias(out, c.Bias)
	c.be.SoftmaxGroups(out, 1, c.classes, 1)
}
