package core

import (
	"fmt"
	"math"
	"math/rand"

	"streambrain/internal/backend"
	"streambrain/internal/tensor"
)

// HiddenLayer is the unsupervised BCPNN feature layer: H hypercolumns of M
// minicolumns each, fully described by its probability traces. Weights and
// biases are *derived* quantities recomputed from the traces after every
// batch — the traces are the learning state, which is what makes the rule
// local and communication-free (paper §II-B).
type HiddenLayer struct {
	be backend.Backend

	// be32 is the float32 kernel set, non-nil only when Params.Precision
	// selects the reduced-precision compute path (DESIGN.md §9). Forward
	// passes outside training then run at half width; the training step,
	// like every trace below, stays float64.
	be32 backend.Backend32

	// Input geometry: Fi input hypercolumns of Mi units each.
	Fi, Mi int
	// Hidden geometry: H HCUs of M MCUs each.
	H, M int

	// Derived parameters.
	W    *tensor.Matrix // (Fi·Mi)×(H·M) log-odds weights; silent blocks are +0
	Bias []float64      // H·M
	Kbi  []float64      // homeostatic bias gain per unit

	// w32/bias32 are the float32 images of W and Bias, rebuilt lazily (see
	// sync32) after any trace update marks them stale. They exist only on
	// the float32 path.
	w32      *tensor.Matrix32
	bias32   []float32
	w32stale bool

	// Probability traces. Cij is kept dense — silent connections keep
	// learning statistics even while gated out of the support, which is what
	// lets structural plasticity score them (DESIGN.md §5.1).
	Ci  []float64
	Cj  []float64
	Cij *tensor.Matrix

	// Mask is the Fi×H receptive-field gate; exactly K entries per HCU
	// column are true.
	Mask []bool
	K    int

	// sparse selects the block-sparse compute regime (DESIGN.md §15). Both
	// regimes gather, re-derive and recast W through the mask's block index;
	// the only difference is the index the joint-trace update receives (see
	// traceBlocks): silent Cij blocks keep decaying in dense mode and are
	// frozen in sparse mode.
	sparse bool
	// blocks is the compressed block index over Mask, rebuilt by
	// maskChanged on every mask mutation. Silent W (and w32) blocks hold
	// exact zeros, written once per rebuild; no kernel writes them.
	blocks *tensor.BlockIndex

	// lastSwaps records the most recent structural update for observers.
	lastSwaps []SwapRecord

	p   Params
	rng *rand.Rand

	// noiseStd is the current support-noise level; the trainer anneals it
	// across unsupervised epochs via SetNoise, and it is never applied in
	// Forward (prediction stays deterministic).
	noiseStd float64

	// scratch reused across batches to keep the hot loop allocation-free.
	pool   *tensor.Pool
	pool32 *tensor.PoolOf[float32]
}

// NewHiddenLayer builds a hidden layer for inputs of fi hypercolumns × mi
// units, with p.HCUs×p.MCUs hidden units on the given backend.
func NewHiddenLayer(be backend.Backend, fi, mi int, p Params, rng *rand.Rand) *HiddenLayer {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if fi < 1 || mi < 1 {
		panic(fmt.Sprintf("core: bad input geometry %dx%d", fi, mi))
	}
	h, m := p.HCUs, p.MCUs
	in, units := fi*mi, h*m
	l := &HiddenLayer{
		be: be, Fi: fi, Mi: mi, H: h, M: m,
		W:      tensor.NewMatrix(in, units),
		Bias:   make([]float64, units),
		Kbi:    make([]float64, units),
		Ci:     make([]float64, in),
		Cj:     make([]float64, units),
		Cij:    tensor.NewMatrix(in, units),
		p:      p,
		rng:    rng,
		sparse: p.SparseCompute,
		pool:   tensor.NewPool(),
	}
	if p.Precision.Is32() {
		// A backend that models shared device state (gpusim) hands out its
		// own float32 companion so both precisions account against one
		// ledger; everything else resolves through the registry.
		if prov, ok := be.(interface{ Kernels32() backend.Backend32 }); ok {
			l.be32 = prov.Kernels32()
		} else {
			be32, err := backend.New32(be.Name(), be.Workers())
			if err != nil {
				panic(fmt.Sprintf("core: Precision %q: %v", p.Precision, err))
			}
			l.be32 = be32
		}
		l.w32 = tensor.NewMatrix32(in, units)
		l.bias32 = make([]float32, units)
		l.pool32 = tensor.NewPoolOf[float32]()
		l.w32stale = true
		// The float32 parameter images are long-lived model state: pin them
		// on offload simulators, mirroring the float64 bench convention of
		// device-resident derived parameters.
		if pin, ok := l.be32.(interface{ MakeResident(...[]float32) }); ok {
			pin.MakeResident(l.w32.Data, l.bias32)
		}
	}
	// Priors: uniform within each hypercolumn. The joint trace gets a small
	// multiplicative jitter so MCUs inside an HCU break symmetry; without it
	// every MCU would stay identical forever (the rule is deterministic).
	pi := 1 / float64(mi)
	pj := 1 / float64(m)
	for i := range l.Ci {
		l.Ci[i] = pi
	}
	for j := range l.Cj {
		l.Cj[j] = pj
		l.Kbi[j] = 1
	}
	for i := 0; i < in; i++ {
		row := l.Cij.Row(i)
		for j := range row {
			row[j] = pi * pj * (1 + p.InitNoise*(rng.Float64()-0.5))
		}
	}
	l.K = receptiveK(p.ReceptiveField, fi)
	l.initMask()
	l.maskChanged()
	return l
}

// InitTracesFromData replaces the uniform input-marginal prior with
// empirical marginals counted from a sample of encoded inputs (Laplace-
// smoothed within each hypercolumn), and re-seeds the joint trace
// consistently as Cij = Ci·Cj·(1+jitter).
//
// This matters for structural plasticity: trace-based MI estimates pool the
// prior state with the data-driven state, and a mixture of two product
// distributions acquires spurious mutual information whenever BOTH marginals
// shift between the states. Seeding Ci at its true value pins the input
// marginal, so only the unit marginal drifts during learning and the
// artifact vanishes — otherwise constant inputs (e.g. always-off MNIST
// fringe pixels, whose marginal moves 0.5→~1) would out-score genuinely
// informative ones.
func (l *HiddenLayer) InitTracesFromData(idx [][]int32) {
	if len(idx) == 0 {
		return
	}
	counts := make([]float64, l.Inputs())
	for _, active := range idx {
		for _, i := range active {
			counts[i]++
		}
	}
	n := float64(len(idx))
	for u := range l.Ci {
		l.Ci[u] = (counts[u] + 1.0/float64(l.Mi)) / (n + 1)
	}
	pj := 1 / float64(l.M)
	for i := 0; i < l.Inputs(); i++ {
		row := l.Cij.Row(i)
		for j := range row {
			row[j] = l.Ci[i] * pj * (1 + l.p.InitNoise*(l.rng.Float64()-0.5))
		}
	}
	l.refreshParameters()
}

// receptiveK converts a receptive-field fraction to a connection count.
func receptiveK(rf float64, fi int) int {
	k := int(math.Round(rf * float64(fi)))
	if k < 0 {
		k = 0
	}
	if k > fi {
		k = fi
	}
	return k
}

// initMask deals each HCU a random set of K active input hypercolumns —
// "initially, each HCU is initiated with a sparse and random receptive
// field" (paper §II-C).
func (l *HiddenLayer) initMask() {
	l.Mask = make([]bool, l.Fi*l.H)
	for h := 0; h < l.H; h++ {
		perm := l.rng.Perm(l.Fi)
		for _, fi := range perm[:l.K] {
			l.Mask[fi*l.H+h] = true
		}
	}
}

// SparseCompute reports whether the layer runs the block-sparse compute
// regime.
func (l *HiddenLayer) SparseCompute() bool { return l.sparse }

// Blocks returns the compressed block index over the current receptive-field
// mask. It is rebuilt only on a mask change, so steady-state training reuses
// one index and Forward stays read-only — the invariant concurrent serving
// (Bundle.Predict) relies on.
func (l *HiddenLayer) Blocks() *tensor.BlockIndex { return l.blocks }

// traceBlocks is the index the joint-trace update walks, and the one place
// the two compute regimes differ: nil in dense mode (silent Cij keep
// decaying, so structural plasticity can score them), the mask's index in
// sparse mode (silent Cij frozen).
func (l *HiddenLayer) traceBlocks() *tensor.BlockIndex {
	if l.sparse {
		return l.blocks
	}
	return nil
}

// maskChanged rebuilds the block index after a mask mutation, zeroes the
// silent W/w32 blocks of the new index once, and re-derives the active ones.
// Every mask mutation funnels through here.
func (l *HiddenLayer) maskChanged() {
	l.blocks = tensor.NewBlockIndex(l.Mask, l.Fi, l.Mi, l.H, l.M)
	tensor.ZeroSilent(l.W, l.blocks)
	if l.w32 != nil {
		tensor.ZeroSilent(l.w32, l.blocks)
	}
	l.refreshParameters()
}

// Units returns the total number of hidden units (H·M).
func (l *HiddenLayer) Units() int { return l.H * l.M }

// Inputs returns the total number of input units (Fi·Mi).
func (l *HiddenLayer) Inputs() int { return l.Fi * l.Mi }

// refreshParameters recomputes the active blocks of W, and Bias, from the
// traces. LayerStep produces both in-pass (DESIGN.md §14), so this runs only
// where parameters must be re-derived without advancing the traces —
// construction, trace re-seeding, trace merges and mask changes. On the
// float32 path the down-cast images go stale and are rebuilt lazily by
// sync32.
func (l *HiddenLayer) refreshParameters() {
	l.be.UpdateWeights(l.W, l.Ci, l.Cj, l.Cij, l.blocks, l.p.Eps)
	l.be.UpdateBias(l.Bias, l.Kbi, l.Cj, l.p.Eps)
	l.w32stale = true
}

// Precision32 reports whether this layer runs forward passes on the float32
// kernel set.
func (l *HiddenLayer) Precision32() bool { return l.be32 != nil }

// sync32 refreshes the float32 parameter images if a trace update made them
// stale. Single-goroutine like every training-path method. The recast
// happens on the host, so offload simulators are told to charge the
// re-upload of the (still pinned) device images.
func (l *HiddenLayer) sync32() {
	if !l.w32stale {
		return
	}
	tensor.CastInto(l.w32, l.W, l.blocks)
	tensor.CastSlice(l.bias32, l.Bias)
	l.w32stale = false
	if ch, ok := l.be32.(interface{ ChargeUpload(...[]float32) }); ok {
		ch.ChargeUpload(l.w32.Data, l.bias32)
	}
}

// Forward computes the hidden activation of a one-hot batch into out
// (batch × H·M): support gathered through the mask's block index plus bias,
// then per-HCU softmax. Forward is deterministic; only training adds support
// noise. On the float32 path the support, bias add and softmax run on the
// float32 kernel set and only the finished activations are up-cast.
func (l *HiddenLayer) Forward(idx [][]int32, out *tensor.Matrix) {
	if out.Rows != len(idx) || out.Cols != l.Units() {
		panic("core: Forward output shape mismatch")
	}
	if l.be32 == nil {
		forwardOn(l, l.be, l.W, l.Bias, idx, out)
		return
	}
	act32 := l.pool32.Get(len(idx), l.Units())
	l.sync32()
	forwardOn(l, l.be32, l.w32, l.bias32, idx, act32)
	tensor.CastInto(out, act32, nil)
	l.pool32.Put(act32)
}

// Forward32 is the reduced-precision forward pass, writing float32
// activations directly (no up-cast). It panics unless the layer was built
// with Params.Precision = Float32.
func (l *HiddenLayer) Forward32(idx [][]int32, out *tensor.Matrix32) {
	if l.be32 == nil {
		panic("core: Forward32 on a float64-precision layer")
	}
	if out.Rows != len(idx) || out.Cols != l.Units() {
		panic("core: Forward32 output shape mismatch")
	}
	l.sync32()
	forwardOn(l, l.be32, l.w32, l.bias32, idx, out)
}

// forwardOn is the one forward implementation, at either precision.
func forwardOn[T tensor.Float](l *HiddenLayer, be backend.Kernels[T], w *tensor.Dense[T],
	bias []T, idx [][]int32, out *tensor.Dense[T]) {
	be.OneHotMatMul(out, idx, w, l.blocks)
	be.AddBias(out, bias)
	be.SoftmaxGroups(out, l.H, l.M, l.p.Temperature)
}

// SetNoise sets the support-noise standard deviation used by TrainBatch.
func (l *HiddenLayer) SetNoise(std float64) { l.noiseStd = std }

// TrainBatch performs one unsupervised BCPNN step on a mini-batch — noisy
// forward pass (see SetNoise), trace update, homeostasis, parameter refresh
// — as one backend LayerStep (DESIGN.md §14).
func (l *HiddenLayer) TrainBatch(idx [][]int32) {
	act := l.pool.Get(len(idx), l.Units())
	l.trainBatchInto(idx, act)
	l.pool.Put(act)
}

// TrainBatchInto is TrainBatch exposing the training activations: the step
// fills act (batch × H·M) with the batch's forward pass against the
// pre-update parameters. It returns true when no support noise was injected
// — act then equals what Forward returned before the step, letting streaming
// callers skip a second forward pass — and false otherwise.
func (l *HiddenLayer) TrainBatchInto(idx [][]int32, act *tensor.Matrix) bool {
	if act.Rows != len(idx) || act.Cols != l.Units() {
		panic("core: TrainBatchInto activation shape mismatch")
	}
	return l.trainBatchInto(idx, act)
}

// trainBatchInto ships the whole batch update to the backend as one
// LayerStep call. A noisy step draws one key from the layer RNG; the step
// adds the keyed Gaussian stream for (key, row) to each support row, so
// training stays deterministic and backend-independent. The step trains at
// float64 on every precision; the float32 parameter images are only marked
// stale, and sync32 rebuilds them before the next reduced-precision forward.
func (l *HiddenLayer) trainBatchInto(idx [][]int32, act *tensor.Matrix) bool {
	var key uint64
	if l.noiseStd > 0 {
		key = l.rng.Uint64()
	}
	l.be.LayerStep(idx, act, l.Ci, l.Cj, l.Cij, l.W, l.Bias,
		backend.LayerHyper[float64]{
			Taupdt:       l.p.Taupdt,
			Taubdt:       l.p.Taubdt,
			PMinFraction: l.p.PMinFraction,
			Temperature:  l.p.Temperature,
			Eps:          l.p.Eps,
			Kbi:          l.Kbi,
			NoiseStd:     l.noiseStd,
			NoiseKey:     key,
			Blocks:       l.blocks,
			Trace:        l.traceBlocks(),
		})
	l.w32stale = true
	return l.noiseStd <= 0
}

// ActiveFraction reports the fraction of hidden units whose activation trace
// is above half the fair share — a liveness diagnostic used by tests.
func (l *HiddenLayer) ActiveFraction() float64 {
	if len(l.Cj) == 0 {
		return 0
	}
	threshold := 0.5 / float64(l.M)
	n := 0
	for _, cj := range l.Cj {
		if cj > threshold {
			n++
		}
	}
	return float64(n) / float64(len(l.Cj))
}
