// Package backendtest provides a reusable equivalence harness for the
// block-sparse compute regime (DESIGN.md §15). It drives one seeded
// multi-step training simulation — including mid-run structural mask swaps —
// through three paths:
//
//   - the dense-masked composed step (the reference semantics: every block
//     gathered, decayed and re-derived, silent weight blocks re-zeroed after
//     each refresh);
//   - backend.ComposedStep over every kernel set under test, with the mask's
//     block index as both the receptive field and the trace index;
//   - the kernel set's own LayerStep on the same indexes, for candidates
//     that ask for it;
//
// and compares every observable (activations, traces, gains, weights,
// biases) field by field after every step. Swap events re-seed the newly
// activated joint-trace blocks to the product of the marginals in every
// model identically — the frozen-silent contract — so the dense and sparse
// regimes stay comparable across mask changes.
package backendtest

import (
	"math"
	"math/rand"
	"testing"

	"streambrain/internal/backend"
	"streambrain/internal/tensor"
)

// Geometry fixes the modular layer shape of a simulation: Fi input
// hypercolumns of Mi units feeding H hidden HCUs of M MCUs.
type Geometry struct{ Fi, Mi, H, M int }

// Config parameterizes one equivalence simulation.
type Config struct {
	Geom  Geometry
	K     int // active input hypercolumns per HCU
	Batch int // samples per training step
	Steps int // composed training steps
	// SwapEvery inserts a structural swap (one silence + one enable per HCU,
	// with joint-trace re-seeding) before every SwapEvery-th step; 0 never
	// swaps.
	SwapEvery int
	Seed      int64
	// DenseTol bounds |sparse − dense-masked reference| per element. 0 means
	// bit-exact, which holds at float64 whenever M is a multiple of the FMA
	// lane width (4): the sparse per-block segments then cover exactly the
	// lanes the dense full-row walk covers, so fused-multiply rounding
	// agrees. Odd M moves block tails onto the scalar microkernel and needs
	// a ~1 ulp tolerance.
	DenseTol float64
	// CrossTol bounds |candidate sparse − naive sparse| per element. 0 means
	// bit-exact: every backend and worker count routes block updates through
	// the same shared segment helpers, so this holds at any M.
	CrossTol float64
}

// fixed hyperparameters of the simulation (mirroring the fused≡composed
// property tests: a pmin that leaves some units starved and some healthy).
const (
	taupdt  = 0.03
	taubdt  = 0.02
	pminFr  = 0.5
	temper  = 0.8
	epsilon = 1e-9
)

// swapEvent is one structural exchange in HCU hcu: input hypercolumn
// silence goes silent, enable becomes active (re-seeded).
type swapEvent struct{ hcu, silence, enable int }

// script is the shared randomness of a simulation: the initial mask, every
// batch, and every swap decision, pre-generated so all models replay the
// identical sequence (swap choices are random, not MI-driven — the harness
// tests kernel equivalence, not core's plasticity policy).
type script struct {
	mask0   []bool
	batches [][][]int32
	swaps   map[int][]swapEvent
}

func newScript(cfg Config) *script {
	g := cfg.Geom
	rng := rand.New(rand.NewSource(cfg.Seed))
	sc := &script{swaps: make(map[int][]swapEvent)}
	sc.mask0 = make([]bool, g.Fi*g.H)
	for h := 0; h < g.H; h++ {
		for _, fi := range rng.Perm(g.Fi)[:cfg.K] {
			sc.mask0[fi*g.H+h] = true
		}
	}
	for s := 0; s < cfg.Steps; s++ {
		batch := make([][]int32, cfg.Batch)
		for b := range batch {
			for f := 0; f < g.Fi; f++ {
				batch[b] = append(batch[b], int32(f*g.Mi+rng.Intn(g.Mi)))
			}
		}
		sc.batches = append(sc.batches, batch)
	}
	// Swap decisions track the evolving mask so silence picks an active
	// hypercolumn and enable a silent one.
	mask := append([]bool(nil), sc.mask0...)
	for s := 1; s < cfg.Steps; s++ {
		if cfg.SwapEvery <= 0 || s%cfg.SwapEvery != 0 {
			continue
		}
		var evs []swapEvent
		for h := 0; h < g.H; h++ {
			var act, sil []int
			for fi := 0; fi < g.Fi; fi++ {
				if mask[fi*g.H+h] {
					act = append(act, fi)
				} else {
					sil = append(sil, fi)
				}
			}
			if len(act) == 0 || len(sil) == 0 {
				continue
			}
			ev := swapEvent{hcu: h,
				silence: act[rng.Intn(len(act))],
				enable:  sil[rng.Intn(len(sil))]}
			mask[ev.silence*g.H+h] = false
			mask[ev.enable*g.H+h] = true
			evs = append(evs, ev)
		}
		sc.swaps[s] = evs
	}
	return sc
}

// model is one replica of the layer state, stepped by either the dense or
// the sparse path of its kernel set.
type model[T tensor.Float] struct {
	geom Geometry
	be   backend.Kernels[T]
	step bool // sparse steps go through be.LayerStep, not ComposedStep

	mask []bool
	bi   *tensor.BlockIndex
	full *tensor.BlockIndex // every block active: the dense reference's index

	ci, cj, kbi, bias []T
	cij, w            *tensor.Dense[T]
	act               *tensor.Dense[T]
}

// newModel builds a model with the scripted initial state: traces seeded
// from cfg.Seed (identically in every model), parameters derived by a
// refresh so the silent-zeros invariant holds from step zero.
func newModel[T tensor.Float](cfg Config, sc *script, be backend.Kernels[T], step bool) *model[T] {
	g := cfg.Geom
	in, units := g.Fi*g.Mi, g.H*g.M
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	m := &model[T]{
		geom: g, be: be, step: step,
		mask: append([]bool(nil), sc.mask0...),
		full: tensor.NewBlockIndex(nil, g.Fi, g.Mi, g.H, g.M),
		ci:   make([]T, in),
		cj:   make([]T, units),
		kbi:  make([]T, units),
		bias: make([]T, units),
		cij:  tensor.NewDense[T](in, units),
		w:    tensor.NewDense[T](in, units),
		act:  tensor.NewDense[T](cfg.Batch, units),
	}
	for i := range m.ci {
		m.ci[i] = T(rng.Float64()*0.9 + 0.05)
	}
	for j := range m.cj {
		m.cj[j] = T(rng.Float64()*0.9 + 0.05)
		m.kbi[j] = T(1 + 0.2*rng.Float64())
	}
	for i := range m.cij.Data {
		m.cij.Data[i] = T(rng.Float64()*0.9 + 0.05)
	}
	m.bi = tensor.NewBlockIndex(m.mask, g.Fi, g.Mi, g.H, g.M)
	m.refresh()
	return m
}

// refresh is the parameter re-derivation every mask change runs: silent
// blocks to exact zeros once, active weight blocks from the traces.
func (m *model[T]) refresh() {
	tensor.ZeroSilent(m.w, m.bi)
	m.be.UpdateWeights(m.w, m.ci, m.cj, m.cij, m.bi, epsilon)
	m.be.UpdateBias(m.bias, m.kbi, m.cj, epsilon)
}

// hyper is the step schedule over the given receptive field and trace index.
func (m *model[T]) hyper(blocks, trace *tensor.BlockIndex) backend.LayerHyper[T] {
	return backend.LayerHyper[T]{
		Taupdt: taupdt, Taubdt: taubdt, PMinFraction: pminFr,
		Temperature: temper, Eps: epsilon, Kbi: m.kbi,
		Blocks: blocks, Trace: trace,
	}
}

// denseStep is the dense-masked composed step — the reference semantics.
func (m *model[T]) denseStep(idx [][]int32) {
	backend.ComposedStep(m.be, idx, m.act, m.ci, m.cj, m.cij, m.w, m.bias, m.hyper(m.full, nil), make([]T, len(m.cj)))
	tensor.ZeroSilent(m.w, m.bi)
}

// sparseStep is the block-sparse step: ComposedStep, or the kernel set's
// own LayerStep, with the block index as receptive field and trace index.
func (m *model[T]) sparseStep(idx [][]int32) {
	if m.step {
		m.be.LayerStep(idx, m.act, m.ci, m.cj, m.cij, m.w, m.bias, m.hyper(m.bi, m.bi))
		return
	}
	backend.ComposedStep(m.be, idx, m.act, m.ci, m.cj, m.cij, m.w, m.bias, m.hyper(m.bi, m.bi), make([]T, len(m.cj)))
}

// applySwap mutates the mask per the scripted events, re-seeds each newly
// activated joint-trace block to Ci·Cj (the frozen-silent regrow contract),
// rebuilds the block index and refreshes — exactly what core does on every
// mask change, in both regimes.
func (m *model[T]) applySwap(evs []swapEvent) {
	g := m.geom
	for _, ev := range evs {
		m.mask[ev.silence*g.H+ev.hcu] = false
		m.mask[ev.enable*g.H+ev.hcu] = true
		for a := ev.enable * g.Mi; a < (ev.enable+1)*g.Mi; a++ {
			row := m.cij.Row(a)
			for j := ev.hcu * g.M; j < (ev.hcu+1)*g.M; j++ {
				row[j] = m.ci[a] * m.cj[j]
			}
		}
	}
	m.bi = tensor.NewBlockIndex(m.mask, g.Fi, g.Mi, g.H, g.M)
	m.refresh()
}

// maxDiff returns the largest |a−b| over a slice pair.
func maxDiff[T tensor.Float](a, b []T) float64 {
	var d float64
	for i := range a {
		if v := math.Abs(float64(a[i]) - float64(b[i])); v > d {
			d = v
		}
	}
	return d
}

// maxActiveDiff returns the largest |a−b| over the active blocks of a pair
// of block-tiled matrices (the silent blocks of the dense reference keep
// evolving while the sparse regime freezes them — by design, not a defect).
func maxActiveDiff[T tensor.Float](a, b *tensor.Dense[T], bi *tensor.BlockIndex) float64 {
	a, b = a.Clone(), b.Clone()
	tensor.ZeroSilent(a, bi)
	tensor.ZeroSilent(b, bi)
	return maxDiff(a.Data, b.Data)
}

// checkSilentZeros fails if any silent weight block holds anything but +0 —
// the invariant the block-indexed kernels rely on to skip them.
func checkSilentZeros[T tensor.Float](t *testing.T, name string, step int,
	w *tensor.Dense[T], bi *tensor.BlockIndex) {
	t.Helper()
	z := w.Clone()
	tensor.ZeroSilent(z, bi)
	for i, v := range z.Data {
		if g := w.Data[i]; g != v || math.Signbit(float64(g)) != math.Signbit(float64(v)) {
			t.Fatalf("%s step %d: silent W element (%d,%d) holds %v",
				name, step, i/w.Cols, i%w.Cols, g)
		}
	}
}

// compare checks every observable of cand against ref within tol; cijActive
// restricts the joint-trace comparison to active blocks (dense reference).
func compare[T tensor.Float](t *testing.T, step int, name, refName string,
	cand, ref *model[T], tol float64, cijActive bool) {
	t.Helper()
	fields := []struct {
		field string
		diff  float64
	}{
		{"act", maxDiff(cand.act.Data, ref.act.Data)},
		{"ci", maxDiff(cand.ci, ref.ci)},
		{"cj", maxDiff(cand.cj, ref.cj)},
		{"kbi", maxDiff(cand.kbi, ref.kbi)},
		{"bias", maxDiff(cand.bias, ref.bias)},
		{"w", maxDiff(cand.w.Data, ref.w.Data)},
	}
	if cijActive {
		fields = append(fields, struct {
			field string
			diff  float64
		}{"cij(active)", maxActiveDiff(cand.cij, ref.cij, cand.bi)})
	} else {
		fields = append(fields, struct {
			field string
			diff  float64
		}{"cij", maxDiff(cand.cij.Data, ref.cij.Data)})
	}
	for _, f := range fields {
		if f.diff > tol {
			t.Fatalf("step %d: %s diverges from %s on %s by %g (tol %g)",
				step, name, refName, f.field, f.diff, tol)
		}
	}
}

// Candidate names one kernel set under test. Step routes its sparse path
// through the kernel set's LayerStep instead of ComposedStep.
type Candidate[T tensor.Float] struct {
	Name    string
	Kernels backend.Kernels[T]
	Step    bool
}

// Run executes the scripted simulation: a dense-masked reference and a
// naive-sparse baseline (both on the naive kernels), plus the sparse path of
// every candidate. After every step each candidate is compared bit-for-bit
// (CrossTol) against the naive-sparse baseline and within DenseTol against
// the dense-masked reference, and every sparse model's silent weight blocks
// are checked to be exact zeros.
func Run[T tensor.Float](t *testing.T, cfg Config, naive backend.Kernels[T],
	cands []Candidate[T]) {
	t.Helper()
	if cfg.K < 1 || cfg.K > cfg.Geom.Fi {
		t.Fatalf("backendtest: K = %d out of range for Fi = %d", cfg.K, cfg.Geom.Fi)
	}
	sc := newScript(cfg)
	ref := newModel(cfg, sc, naive, false)  // dense-masked reference
	base := newModel(cfg, sc, naive, false) // naive sparse baseline
	models := make([]*model[T], len(cands))
	for i, c := range cands {
		models[i] = newModel(cfg, sc, c.Kernels, c.Step)
	}
	for s := 0; s < cfg.Steps; s++ {
		if evs, ok := sc.swaps[s]; ok {
			ref.applySwap(evs)
			base.applySwap(evs)
			for _, m := range models {
				m.applySwap(evs)
			}
		}
		idx := sc.batches[s]
		ref.denseStep(idx)
		base.sparseStep(idx)
		compare(t, s, "naive-sparse", "dense-masked", base, ref, cfg.DenseTol, true)
		checkSilentZeros(t, "naive-sparse", s, base.w, base.bi)
		for i, m := range models {
			m.sparseStep(idx)
			compare(t, s, cands[i].Name, "naive-sparse", m, base, cfg.CrossTol, false)
			checkSilentZeros(t, cands[i].Name, s, m.w, m.bi)
		}
	}
}
