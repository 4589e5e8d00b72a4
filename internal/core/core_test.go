package core

import (
	"math"
	"math/rand"
	"testing"

	"streambrain/internal/backend"
	"streambrain/internal/data"
	"streambrain/internal/tensor"
)

// synthEncoded builds a one-hot dataset where the label is a (noisy)
// function of a few informative hypercolumns; the rest are uniform noise.
// informative[i] lists which hypercolumns carry signal.
func synthEncoded(rng *rand.Rand, n, fi, mi int, informative []int, noise float64) *data.Encoded {
	e := &data.Encoded{
		Idx:          make([][]int32, n),
		Y:            make([]int, n),
		Classes:      2,
		Hypercolumns: fi,
		UnitsPerHC:   mi,
	}
	isInf := make(map[int]bool)
	for _, f := range informative {
		isInf[f] = true
	}
	for s := 0; s < n; s++ {
		y := rng.Intn(2)
		e.Y[s] = y
		active := make([]int32, fi)
		for f := 0; f < fi; f++ {
			var bin int
			if isInf[f] && rng.Float64() > noise {
				// Signal: classes occupy disjoint halves of the bins.
				if y == 1 {
					bin = mi/2 + rng.Intn(mi-mi/2)
				} else {
					bin = rng.Intn(mi / 2)
				}
			} else {
				bin = rng.Intn(mi)
			}
			active[f] = int32(f*mi + bin)
		}
		e.Idx[s] = active
	}
	return e
}

func smallParams() Params {
	p := DefaultParams()
	p.HCUs = 2
	p.MCUs = 8
	p.ReceptiveField = 0.5
	p.BatchSize = 32
	p.UnsupervisedEpochs = 3
	p.SupervisedEpochs = 3
	p.Taupdt = 0.05
	return p
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("defaults invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.HCUs = 0 },
		func(p *Params) { p.MCUs = 1 },
		func(p *Params) { p.ReceptiveField = 1.5 },
		func(p *Params) { p.Taupdt = 0 },
		func(p *Params) { p.Taubdt = 2 },
		func(p *Params) { p.Temperature = 0 },
		func(p *Params) { p.Eps = 0 },
		func(p *Params) { p.BatchSize = 0 },
		func(p *Params) { p.UnsupervisedEpochs = -1 },
	}
	for i, mut := range bad {
		p := DefaultParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestReceptiveK(t *testing.T) {
	cases := []struct {
		rf   float64
		fi   int
		want int
	}{{0, 28, 0}, {0.05, 28, 1}, {0.30, 28, 8}, {0.5, 28, 14}, {1, 28, 28}, {0.40, 28, 11}}
	for _, c := range cases {
		if got := receptiveK(c.rf, c.fi); got != c.want {
			t.Fatalf("receptiveK(%v,%d) = %d, want %d", c.rf, c.fi, got, c.want)
		}
	}
}

// maskCount returns how many input hypercolumns HCU h sees.
func maskCount(l *HiddenLayer, h int) int {
	n := 0
	for fi := 0; fi < l.Fi; fi++ {
		if l.Mask[fi*l.H+h] {
			n++
		}
	}
	return n
}

func TestHiddenLayerInitInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := smallParams()
	l := NewHiddenLayer(backend.MustNew("naive", 0), 10, 4, p, rng)
	// Mask: exactly K active per HCU.
	for h := 0; h < l.H; h++ {
		if got := maskCount(l, h); got != l.K {
			t.Fatalf("HCU %d has %d active inputs, want %d", h, got, l.K)
		}
	}
	// Traces are valid probabilities.
	for _, v := range l.Ci {
		if v <= 0 || v > 1 {
			t.Fatalf("Ci out of range: %v", v)
		}
	}
	for _, v := range l.Cj {
		if math.Abs(v-1.0/float64(l.M)) > 1e-12 {
			t.Fatalf("Cj prior wrong: %v", v)
		}
	}
}

func TestForwardIsDistributionPerHCU(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := smallParams()
	l := NewHiddenLayer(backend.MustNew("naive", 0), 10, 4, p, rng)
	e := synthEncoded(rng, 16, 10, 4, []int{0, 1}, 0.1)
	act := tensor.NewMatrix(16, l.Units())
	l.Forward(e.Idx[:16], act)
	for s := 0; s < 16; s++ {
		row := act.Row(s)
		for h := 0; h < l.H; h++ {
			var sum float64
			for j := h * l.M; j < (h+1)*l.M; j++ {
				if row[j] < 0 {
					t.Fatalf("negative activation")
				}
				sum += row[j]
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("HCU %d mass = %v", h, sum)
			}
		}
	}
}

// TestTracesStayProbabilities: after many training batches, all traces must
// remain valid probability estimates — the central numerical invariant of
// the BCPNN rule.
func TestTracesStayProbabilities(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := smallParams()
	l := NewHiddenLayer(backend.MustNew("naive", 0), 8, 5, p, rng)
	e := synthEncoded(rng, 256, 8, 5, []int{0, 3}, 0.2)
	l.InitTracesFromData(e.Idx)
	l.SetNoise(p.SupportNoise)
	for epoch := 0; epoch < 4; epoch++ {
		e.Batches(p.BatchSize, rng, func(idx [][]int32, _ []int) {
			l.TrainBatch(idx)
		})
		l.StructuralUpdate()
	}
	for i, v := range l.Ci {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("Ci[%d] = %v", i, v)
		}
	}
	for j, v := range l.Cj {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("Cj[%d] = %v", j, v)
		}
	}
	for i, v := range l.Cij.Data {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("Cij[%d] = %v", i, v)
		}
	}
	// Per-hypercolumn sums of Ci must stay ≈1 (one-hot inputs).
	for fi := 0; fi < l.Fi; fi++ {
		var sum float64
		for u := fi * l.Mi; u < (fi+1)*l.Mi; u++ {
			sum += l.Ci[u]
		}
		if math.Abs(sum-1) > 0.05 {
			t.Fatalf("input hypercolumn %d mass = %v", fi, sum)
		}
	}
	// Per-HCU sums of Cj likewise.
	for h := 0; h < l.H; h++ {
		var sum float64
		for j := h * l.M; j < (h+1)*l.M; j++ {
			sum += l.Cj[j]
		}
		if math.Abs(sum-1) > 0.05 {
			t.Fatalf("HCU %d activation mass = %v", h, sum)
		}
	}
}

// TestMaskInvariantUnderTraining: structural plasticity must preserve the
// exact receptive-field size K per HCU, whatever it does.
func TestMaskInvariantUnderTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := smallParams()
	p.SwapsPerEpoch = 3
	l := NewHiddenLayer(backend.MustNew("parallel", 4), 12, 4, p, rng)
	e := synthEncoded(rng, 300, 12, 4, []int{1, 5, 9}, 0.1)
	for epoch := 0; epoch < 5; epoch++ {
		e.Batches(p.BatchSize, rng, func(idx [][]int32, _ []int) {
			l.TrainBatch(idx)
		})
		l.StructuralUpdate()
		for h := 0; h < l.H; h++ {
			if got := maskCount(l, h); got != l.K {
				t.Fatalf("epoch %d HCU %d: %d active, want %d", epoch, h, got, l.K)
			}
		}
	}
}

// TestStructuralPlasticityFindsSignal: with a tight receptive field, the
// mask must migrate toward the informative hypercolumns — the paper's
// headline qualitative claim ("the network learns to look at the most
// interesting aspects of the input", §II).
func TestStructuralPlasticityFindsSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := smallParams()
	p.HCUs = 1
	p.MCUs = 8
	p.ReceptiveField = 0.2 // 3 of 15 hypercolumns
	p.SwapsPerEpoch = 2
	p.Taupdt = 0.05
	informative := []int{2, 7, 11}
	l := NewHiddenLayer(backend.MustNew("naive", 0), 15, 4, p, rng)
	e := synthEncoded(rng, 1500, 15, 4, informative, 0.05)
	l.InitTracesFromData(e.Idx)
	const epochs = 12
	for epoch := 0; epoch < epochs; epoch++ {
		l.SetNoise(p.SupportNoise * (1 - float64(epoch)/float64(epochs-1)))
		e.Batches(p.BatchSize, rng, func(idx [][]int32, _ []int) {
			l.TrainBatch(idx)
		})
		l.StructuralUpdate()
	}
	field := l.ReceptiveField(0)
	hits := 0
	for _, f := range informative {
		if field[f] {
			hits++
		}
	}
	if hits < 2 {
		t.Fatalf("receptive field found only %d of 3 informative inputs: %v", hits, field)
	}
}

// TestMutualInformationRanksSignal: hypercolumns that share latent structure
// (here: several columns all driven by the same hidden variable) must
// receive higher MI scores than independent-noise columns after training.
// Note a *single* informative column is undetectable without labels — MI
// with the hidden code only rises for inputs whose structure is shared, the
// same reason MNIST's mutually-correlated center pixels win in Fig. 1.
func TestMutualInformationRanksSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := smallParams()
	p.HCUs = 1
	p.ReceptiveField = 1.0 // full view, no masking effects on traces
	p.Taupdt = 0.05
	informative := []int{3, 7}
	l := NewHiddenLayer(backend.MustNew("naive", 0), 10, 4, p, rng)
	e := synthEncoded(rng, 2000, 10, 4, informative, 0.05)
	l.InitTracesFromData(e.Idx)
	const epochs = 10
	for epoch := 0; epoch < epochs; epoch++ {
		l.SetNoise(p.SupportNoise * (1 - float64(epoch)/float64(epochs-1)))
		e.Batches(p.BatchSize, rng, func(idx [][]int32, _ []int) {
			l.TrainBatch(idx)
		})
	}
	mi := l.MutualInformation()
	minSignal := math.Min(mi[3], mi[7])
	for fi := 0; fi < 10; fi++ {
		if fi == 3 || fi == 7 {
			continue
		}
		if minSignal <= mi[fi] {
			t.Fatalf("MI(signal)=%v not above MI(noise %d)=%v", minSignal, fi, mi[fi])
		}
	}
	top := l.TopInputs(0)
	if !(top[0] == 3 || top[0] == 7) || !(top[1] == 3 || top[1] == 7) {
		t.Fatalf("TopInputs ranked %v first, want {3,7} on top", top[:2])
	}
}

func TestStructuralUpdateDegenerateFields(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, rf := range []float64{0, 1} {
		p := smallParams()
		p.ReceptiveField = rf
		l := NewHiddenLayer(backend.MustNew("naive", 0), 6, 3, p, rng)
		if swaps := l.StructuralUpdate(); swaps != nil {
			t.Fatalf("RF=%v: expected no swaps, got %v", rf, swaps)
		}
	}
}

// TestNoDeadUnits: homeostasis must keep a healthy fraction of MCUs alive
// after training (the effect the bias-gain regulation exists for).
func TestNoDeadUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := smallParams()
	p.HCUs = 1
	p.MCUs = 10
	p.Taupdt = 0.05
	l := NewHiddenLayer(backend.MustNew("naive", 0), 8, 4, p, rng)
	e := synthEncoded(rng, 1000, 8, 4, []int{0, 1}, 0.1)
	l.InitTracesFromData(e.Idx)
	const epochs = 10
	for epoch := 0; epoch < epochs; epoch++ {
		l.SetNoise(p.SupportNoise * (1 - float64(epoch)/float64(epochs-1)))
		e.Batches(p.BatchSize, rng, func(idx [][]int32, _ []int) {
			l.TrainBatch(idx)
		})
	}
	if frac := l.ActiveFraction(); frac < 0.5 {
		t.Fatalf("only %.0f%% of MCUs alive after training", frac*100)
	}
}

func TestClassifierLearnsDirectMapping(t *testing.T) {
	// Feed the classifier a "hidden code" that is simply the one-hot label
	// plus noise: it must learn the identity mapping.
	rng := rand.New(rand.NewSource(9))
	p := smallParams()
	p.Taupdt = 0.05
	be := backend.MustNew("naive", 0)
	c := NewClassifier(be, 4, 2, p, rng)
	act := tensor.NewMatrix(32, 4)
	labels := make([]int, 32)
	for step := 0; step < 200; step++ {
		for s := 0; s < 32; s++ {
			y := rng.Intn(2)
			labels[s] = y
			for j := 0; j < 4; j++ {
				act.Set(s, j, 0.1*rng.Float64())
			}
			act.Set(s, y, 0.8+0.2*rng.Float64())
		}
		c.TrainBatch(act, labels)
	}
	probs := tensor.NewMatrix(32, 2)
	c.Scores(act, probs)
	correct := 0
	for s := 0; s < 32; s++ {
		if tensor.ArgMaxRow(probs.Row(s)) == labels[s] {
			correct++
		}
	}
	if correct < 30 {
		t.Fatalf("classifier got %d/32 on a trivially separable code", correct)
	}
}

// TestNetworkLearnsSynthetic is the package's integration test: a full
// unsupervised+supervised run must clear 80% accuracy on the separable
// synthetic task (chance is 50%).
func TestNetworkLearnsSynthetic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := smallParams()
	p.HCUs = 2
	p.MCUs = 10
	p.ReceptiveField = 0.6
	p.UnsupervisedEpochs = 6
	p.SupervisedEpochs = 6
	p.Taupdt = 0.05
	n := NewNetwork(backend.MustNew("parallel", 4), 10, 4, 2, p)
	train := synthEncoded(rng, 2000, 10, 4, []int{1, 4, 8}, 0.15)
	test := synthEncoded(rng, 600, 10, 4, []int{1, 4, 8}, 0.15)
	n.Train(train)
	acc, auc := n.Evaluate(test)
	if acc < 0.80 {
		t.Fatalf("accuracy %.3f below 0.80 on separable task", acc)
	}
	if auc < 0.85 {
		t.Fatalf("AUC %.3f below 0.85 on separable task", auc)
	}
	if n.TrainTime <= 0 {
		t.Fatal("TrainTime not recorded")
	}
}

// TestBackendsAgreeOnTraining: training the same network on naive and
// parallel backends from the same seed must produce identical predictions —
// parallelization must not change the math.
func TestBackendsAgreeOnTraining(t *testing.T) {
	rngData := rand.New(rand.NewSource(11))
	train := synthEncoded(rngData, 400, 8, 4, []int{0, 5}, 0.1)
	test := synthEncoded(rngData, 100, 8, 4, []int{0, 5}, 0.1)
	run := func(name string) []int {
		p := smallParams()
		p.UnsupervisedEpochs = 2
		p.SupervisedEpochs = 2
		n := NewNetwork(backend.MustNew(name, 4), 8, 4, 2, p)
		n.Train(train)
		pred, _ := n.Predict(test)
		return pred
	}
	a := run("naive")
	b := run("parallel")
	c := run("gpusim")
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("backends disagree at sample %d: naive=%d parallel=%d gpusim=%d",
				i, a[i], b[i], c[i])
		}
	}
}

func TestNetworkDeterministicAcrossRuns(t *testing.T) {
	rngData := rand.New(rand.NewSource(12))
	train := synthEncoded(rngData, 300, 6, 4, []int{2}, 0.1)
	test := synthEncoded(rngData, 80, 6, 4, []int{2}, 0.1)
	run := func() []int {
		p := smallParams()
		p.UnsupervisedEpochs = 2
		p.SupervisedEpochs = 2
		p.Seed = 77
		n := NewNetwork(backend.MustNew("naive", 0), 6, 4, 2, p)
		n.Train(train)
		pred, _ := n.Predict(test)
		return pred
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different prediction at %d", i)
		}
	}
}

func TestPredictScoresAreProbabilities(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := smallParams()
	p.UnsupervisedEpochs = 1
	p.SupervisedEpochs = 1
	n := NewNetwork(backend.MustNew("naive", 0), 6, 4, 2, p)
	train := synthEncoded(rng, 200, 6, 4, []int{0}, 0.1)
	n.Train(train)
	_, score := n.Predict(train)
	for i, s := range score {
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("score[%d] = %v", i, s)
		}
	}
}

func TestSetReceptiveFieldRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	p := smallParams()
	l := NewHiddenLayer(backend.MustNew("naive", 0), 6, 3, p, rng)
	field := make([]bool, 6)
	field[1], field[4], field[5] = true, true, true
	l.SetReceptiveField(0, field)
	got := l.ReceptiveField(0)
	for i := range field {
		if got[i] != field[i] {
			t.Fatalf("field mismatch at %d", i)
		}
	}
}

func TestAdaptiveSettersClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	l := NewHiddenLayer(backend.MustNew("naive", 0), 6, 3, smallParams(), rng)
	l.SetSwapsPerEpoch(-5)
	if l.SwapsPerEpoch() != 0 {
		t.Fatalf("negative budget not clamped: %d", l.SwapsPerEpoch())
	}
	l.SetSwapsPerEpoch(7)
	if l.SwapsPerEpoch() != 7 {
		t.Fatal("budget setter ignored")
	}
	l.SetSwapMargin(-1)
	if l.SwapMargin() != 0 {
		t.Fatalf("negative margin not clamped: %v", l.SwapMargin())
	}
	l.SetSwapMargin(0.2)
	if l.SwapMargin() != 0.2 {
		t.Fatal("margin setter ignored")
	}
}
