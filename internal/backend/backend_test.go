package backend

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"streambrain/internal/tensor"
)

const tol = 1e-9

func randMat(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func randProbMat(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float64()*0.9 + 0.05
	}
	return m
}

func randIdx(rng *rand.Rand, batch, groups, width int) [][]int32 {
	idx := make([][]int32, batch)
	for s := range idx {
		for g := 0; g < groups; g++ {
			idx[s] = append(idx[s], int32(g*width+rng.Intn(width)))
		}
	}
	return idx
}

// allBackends returns one instance of every registered backend, with varied
// worker counts for the parallel ones.
func allBackends() []Backend {
	return []Backend{
		MustNew("naive", 0),
		MustNew("parallel", 1),
		MustNew("parallel", 4),
		MustNew("fused", 1),
		MustNew("fused", 4),
		MustNew("gpusim", 4),
	}
}

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := map[string]bool{"naive": true, "parallel": true, "fused": true, "gpusim": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("missing backends: %v (have %v)", want, names)
	}
}

func TestNewUnknownBackend(t *testing.T) {
	if _, err := New("tpu", 1); err == nil {
		t.Fatal("expected error for unknown backend")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Register("naive", func(int) Backend { return nil })
}

// TestConformanceMatMul and friends cross-check every backend against the
// naive reference, the same validation strategy StreamBrain uses for its
// hand-coded kernels vs NumPy.
func TestConformanceMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 37, 53)
	b := randMat(rng, 53, 29)
	want := tensor.NewMatrix(37, 29)
	MustNew("naive", 0).MatMul(want, a, b)
	for _, be := range allBackends() {
		got := tensor.NewMatrix(37, 29)
		be.MatMul(got, a, b)
		if d := got.MaxAbsDiff(want); d > tol {
			t.Errorf("%s MatMul diff %g", be.Name(), d)
		}
	}
}

// blockIndexes returns the receptive-field inputs of the block-indexed kernel
// tables: nil (every block), the full index and a partial one. The tables
// use H > 1 with M = 37, no multiple of any SIMD width, so block segments
// end on scalar tails.
func blockIndexes(fi, mi, h, m int) []*tensor.BlockIndex {
	mask := make([]bool, fi*h)
	for i := range mask {
		mask[i] = i%3 != 1
	}
	return []*tensor.BlockIndex{nil, tensor.NewBlockIndex(nil, fi, mi, h, m),
		tensor.NewBlockIndex(mask, fi, mi, h, m)}
}

// sameBits fails unless got and want hold identical bits (signed zeros
// included).
func sameBits[T tensor.Float](t *testing.T, what string, got, want []T) {
	t.Helper()
	for i, v := range want {
		g := got[i]
		if float64(g) != float64(v) || math.Signbit(float64(g)) != math.Signbit(float64(v)) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, g, v)
		}
	}
}

// gatherIndexes checks that be's gather gives the same bits through every
// index of bis; w's silent blocks must be zero.
func gatherIndexes[T tensor.Float](t *testing.T, name string, be Kernels[T], idx [][]int32,
	w *tensor.Dense[T], bis []*tensor.BlockIndex) {
	t.Helper()
	want := tensor.NewDense[T](len(idx), w.Cols)
	be.OneHotMatMul(want, idx, w, nil)
	for _, bi := range bis[1:] {
		got := tensor.NewDense[T](len(idx), w.Cols)
		be.OneHotMatMul(got, idx, w, bi)
		sameBits(t, fmt.Sprintf("%s gather over %d blocks", name, bi.ActiveBlocks()), got.Data, want.Data)
	}
}

func TestConformanceOneHotMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const batch, groups, width, h, m = 21, 9, 10, 3, 37
	bis := blockIndexes(groups, width, h, m)
	w := randMat(rng, groups*width, h*m)
	tensor.ZeroSilent(w, bis[2]) // silent blocks are exact zeros in a live layer
	idx := randIdx(rng, batch, groups, width)
	want := tensor.NewMatrix(batch, h*m)
	MustNew("naive", 0).OneHotMatMul(want, idx, w, nil)
	for _, be := range allBackends() {
		got := tensor.NewMatrix(batch, h*m)
		be.OneHotMatMul(got, idx, w, nil)
		if d := got.MaxAbsDiff(want); d > tol {
			t.Errorf("%s OneHotMatMul diff %g", be.Name(), d)
		}
	}
	w32 := tensor.Cast[float32](w)
	for _, name := range Names() {
		gatherIndexes(t, name+"/f64", MustNew(name, 3), idx, w, bis)
	}
	for _, name := range Names32() {
		gatherIndexes(t, name+"/f32", MustNew32(name, 3), idx, w32, bis)
	}
}

func TestConformanceAddBiasSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bias := make([]float64, 24)
	for i := range bias {
		bias[i] = rng.NormFloat64()
	}
	src := randMat(rng, 19, 24)
	want := src.Clone()
	nv := MustNew("naive", 0)
	nv.AddBias(want, bias)
	nv.SoftmaxGroups(want, 4, 6, 0.7)
	for _, be := range allBackends() {
		got := src.Clone()
		be.AddBias(got, bias)
		be.SoftmaxGroups(got, 4, 6, 0.7)
		if d := got.MaxAbsDiff(want); d > 1e-12 {
			t.Errorf("%s AddBias+Softmax diff %g", be.Name(), d)
		}
	}
}

func TestConformanceTraceKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const batch, groups, width, units = 16, 7, 10, 33
	in := groups * width
	idx := randIdx(rng, batch, groups, width)
	act := randProbMat(rng, batch, units)
	ciRef := make([]float64, in)
	cijRef := randProbMat(rng, in, units)
	for i := range ciRef {
		ciRef[i] = rng.Float64()
	}
	nv := MustNew("naive", 0)
	wantCi := append([]float64(nil), ciRef...)
	wantCij := cijRef.Clone()
	nv.OneHotMeanLerp(wantCi, idx, 0.03)
	nv.OneHotOuterLerp(wantCij, idx, act, 0.03, nil)
	for _, be := range allBackends() {
		gotCi := append([]float64(nil), ciRef...)
		gotCij := cijRef.Clone()
		be.OneHotMeanLerp(gotCi, idx, 0.03)
		be.OneHotOuterLerp(gotCij, idx, act, 0.03, nil)
		for i := range gotCi {
			if math.Abs(gotCi[i]-wantCi[i]) > tol {
				t.Fatalf("%s Ci diff at %d", be.Name(), i)
			}
		}
		if d := gotCij.MaxAbsDiff(wantCij); d > tol {
			t.Errorf("%s Cij diff %g", be.Name(), d)
		}
	}
}

func TestConformanceOuterLerp(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randProbMat(rng, 12, 20)
	b := randProbMat(rng, 12, 5)
	base := randProbMat(rng, 20, 5)
	want := base.Clone()
	MustNew("naive", 0).OuterLerp(want, a, b, 0.1)
	for _, be := range allBackends() {
		got := base.Clone()
		be.OuterLerp(got, a, b, 0.1)
		if d := got.MaxAbsDiff(want); d > tol {
			t.Errorf("%s OuterLerp diff %g", be.Name(), d)
		}
	}
}

// refreshIndexes checks that be's weight refresh gives the same bits on the
// blocks every index of bis covers and leaves the others at zero.
func refreshIndexes[T tensor.Float](t *testing.T, name string, be Kernels[T], ci, cj []T,
	cij *tensor.Dense[T], bis []*tensor.BlockIndex) {
	t.Helper()
	all := tensor.NewDense[T](cij.Rows, cij.Cols)
	be.UpdateWeights(all, ci, cj, cij, nil, 1e-9)
	for _, bi := range bis[1:] {
		got := tensor.NewDense[T](cij.Rows, cij.Cols)
		be.UpdateWeights(got, ci, cj, cij, bi, 1e-9)
		want := all.Clone()
		tensor.ZeroSilent(want, bi)
		sameBits(t, fmt.Sprintf("%s refresh over %d blocks", name, bi.ActiveBlocks()), got.Data, want.Data)
	}
}

// TestConformanceUpdateWeightsBias: every float64 backend but fpgasim (whose
// parameters are posit-quantized) refreshes W and Bias bit for bit like
// naive's math.Log. The traces hold entries below eps², subnormals and exact
// zeros, at an eps whose eps² is normal (they floor onto the fast log's
// path) and at one whose eps² is subnormal (they take its fallback lanes).
func TestConformanceUpdateWeightsBias(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const fi, mi, h, m = 5, 4, 3, 37
	in, units := fi*mi, h*m
	ci := make([]float64, in)
	cj := make([]float64, units)
	kbi := make([]float64, units)
	for i := range ci {
		ci[i] = rng.Float64()
	}
	for j := range cj {
		cj[j] = rng.Float64()
		kbi[j] = 1 + rng.Float64()
	}
	cij := randProbMat(rng, in, units)
	specials := []float64{0, 5e-324, 1e-315, 1e-310, 1e-300, 1e-20}
	for i := range cij.Data {
		if rng.Intn(4) == 0 {
			cij.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	cj[3], cj[7], ci[2] = 0, 1e-310, 0
	bis := blockIndexes(fi, mi, h, m)
	nv := MustNew("naive", 0)
	for _, eps := range []float64{1e-9, 1e-160} {
		wantW := tensor.NewMatrix(in, units)
		wantB := make([]float64, units)
		nv.UpdateWeights(wantW, ci, cj, cij, bis[2], eps)
		nv.UpdateBias(wantB, kbi, cj, eps)
		for _, be := range allBackends() {
			gotW := tensor.NewMatrix(in, units)
			gotB := make([]float64, units)
			be.UpdateWeights(gotW, ci, cj, cij, bis[2], eps)
			be.UpdateBias(gotB, kbi, cj, eps)
			what := fmt.Sprintf("%s/%d eps %g", be.Name(), be.Workers(), eps)
			sameBits(t, what+" UpdateWeights", gotW.Data, wantW.Data)
			sameBits(t, what+" UpdateBias", gotB, wantB)
		}
	}
	ci32, cj32 := make([]float32, in), make([]float32, units)
	tensor.CastSlice(ci32, ci)
	tensor.CastSlice(cj32, cj)
	cij32 := tensor.Cast[float32](cij)
	for _, name := range Names() {
		refreshIndexes(t, name+"/f64", MustNew(name, 3), ci, cj, cij, bis)
	}
	for _, name := range Names32() {
		refreshIndexes(t, name+"/f32", MustNew32(name, 3), ci32, cj32, cij32, bis)
	}
}

// TestUpdateWeightsMaskZeroesSilentBlocks: a refresh through the mask's
// block index after ZeroSilent — what every mask change runs — leaves the
// silent blocks at exact zeros whatever they held, and derives the active
// ones.
func TestUpdateWeightsMaskZeroesSilentBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const fi, mi, h, m = 3, 2, 2, 2
	in, units := fi*mi, h*m
	ci := make([]float64, in)
	cj := make([]float64, units)
	for i := range ci {
		ci[i] = 0.5
	}
	for j := range cj {
		cj[j] = 0.5
	}
	cij := randProbMat(rng, in, units)
	mask := []bool{true, false, false, true, true, true}
	bi := tensor.NewBlockIndex(mask, fi, mi, h, m)
	w := randMat(rng, in, units)
	tensor.ZeroSilent(w, bi)
	MustNew("naive", 0).UpdateWeights(w, ci, cj, cij, bi, 1e-9)
	for i := 0; i < in; i++ {
		for j := 0; j < units; j++ {
			gated := mask[(i/mi)*h+j/m]
			v := w.At(i, j)
			if !gated && (v != 0 || math.Signbit(v)) {
				t.Fatalf("silent weight (%d,%d) = %v, want +0", i, j, v)
			}
			if gated && v == 0 {
				t.Fatalf("active weight (%d,%d) unexpectedly zero", i, j)
			}
		}
	}
}

func TestUpdateWeightsIndependenceIsZero(t *testing.T) {
	// If Cij = Ci·Cj exactly (statistical independence), weights must be 0:
	// log(pij/(pi·pj)) = log 1. This is the defining property of the BCPNN
	// weight — it measures deviation from independence.
	const in, units = 4, 3
	ci := []float64{0.2, 0.3, 0.4, 0.1}
	cj := []float64{0.5, 0.25, 0.25}
	cij := tensor.NewMatrix(in, units)
	for i := 0; i < in; i++ {
		for j := 0; j < units; j++ {
			cij.Set(i, j, ci[i]*cj[j])
		}
	}
	w := tensor.NewMatrix(in, units)
	MustNew("naive", 0).UpdateWeights(w, ci, cj, cij, nil, 1e-9)
	for _, v := range w.Data {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("independence should give zero weight, got %v", v)
		}
	}
}

func TestGPUSimTransferAccounting(t *testing.T) {
	g := NewGPUSim(2, PolicyOffloaded)
	w := tensor.NewMatrix(10, 8)
	dst := tensor.NewMatrix(4, 8)
	g.MakeResident(w.Data, dst.Data)
	afterPin := g.Stats()
	if afterPin.BytesH2D != int64(8*(len(w.Data)+len(dst.Data))) {
		t.Fatalf("pin upload bytes = %d", afterPin.BytesH2D)
	}
	idx := [][]int32{{0}, {1}, {2}, {3}}
	g.OneHotMatMul(dst, idx, w, nil)
	st := g.Stats()
	// Offloaded: only the 4 indices move host→device; no D2H for resident dst.
	wantH2D := afterPin.BytesH2D + 4*4
	if st.BytesH2D != wantH2D {
		t.Fatalf("offloaded H2D = %d, want %d", st.BytesH2D, wantH2D)
	}
	if st.BytesD2H != 0 {
		t.Fatalf("offloaded D2H = %d, want 0", st.BytesD2H)
	}
	if st.KernelLaunches != 1 {
		t.Fatalf("launches = %d, want 1", st.KernelLaunches)
	}

	// Chatty: the same call moves the whole weight matrix and result.
	g.ResetStats()
	g.SetPolicy(PolicyChatty)
	g.OneHotMatMul(dst, idx, w, nil)
	st = g.Stats()
	if st.BytesH2D != int64(8*len(w.Data)+4*4) {
		t.Fatalf("chatty H2D = %d", st.BytesH2D)
	}
	if st.BytesD2H != int64(8*len(dst.Data)) {
		t.Fatalf("chatty D2H = %d", st.BytesD2H)
	}
}

func TestGPUSimMakeResidentIdempotent(t *testing.T) {
	g := NewGPUSim(1, PolicyOffloaded)
	buf := make([]float64, 16)
	g.MakeResident(buf)
	g.MakeResident(buf)
	if st := g.Stats(); st.BytesH2D != 8*16 {
		t.Fatalf("double pin charged twice: %d", st.BytesH2D)
	}
}

func TestTransferPolicyString(t *testing.T) {
	if PolicyOffloaded.String() != "offloaded" || PolicyChatty.String() != "chatty" {
		t.Fatal("bad policy strings")
	}
	if TransferPolicy(9).String() == "" {
		t.Fatal("unknown policy must still render")
	}
}

func TestParallelWorkersDefault(t *testing.T) {
	p := NewParallel(0)
	if p.Workers() < 1 {
		t.Fatalf("default workers = %d", p.Workers())
	}
	if NewParallel(3).Workers() != 3 {
		t.Fatal("explicit workers not honored")
	}
}

// TestParallelSerialKernelsAllocateNothing: at one worker the row-sharded
// kernels run their range helper over [0, n) inline, so no worker closure
// escapes to the heap, and the composed LayerStep reuses its scratch.
func TestParallelSerialKernelsAllocateNothing(t *testing.T) {
	p := NewParallel(1)
	for _, c := range simCases {
		s := simState[float64](c.sparse, c.noisy)
		calls := map[string]func(){
			"AddBias":         func() { p.AddBias(s.act, s.bias) },
			"OneHotOuterLerp": func() { p.OneHotOuterLerp(s.cij, s.idx, s.act, 0.01, s.hyp.Trace) },
			"UpdateWeights":   func() { p.UpdateWeights(s.w, s.ci, s.cj, s.cij, s.hyp.Blocks, 1e-9) },
			"LayerStep":       func() { s.step(p) },
		}
		for name, call := range calls {
			if n := testing.AllocsPerRun(20, call); n != 0 {
				t.Errorf("%s %s: %v allocs/call at one worker, want 0", c.name, name, n)
			}
		}
	}
}
