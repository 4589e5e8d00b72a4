package backend

import (
	"math/rand"
	"testing"

	"streambrain/internal/tensor"
)

// driveGPUSim runs an identical kernel sequence on a simulator of either
// precision and returns the ledger. The sequence mirrors one training step:
// resident model state, per-batch activation upload, trace update, weight
// refresh, forward pass download.
func driveGPUSim[T tensor.Float](g *GPUSim[T], rng *rand.Rand) TransferStats {
	const (
		in, outs = 60, 48
		batch    = 8
	)
	w := tensor.NewDense[T](in, outs)
	cij := tensor.NewDense[T](in, outs)
	ci := make([]T, in)
	cj := make([]T, outs)
	bias := make([]T, outs)
	kbi := make([]T, outs)
	for i := range ci {
		ci[i] = T(rng.Float64()*0.1 + 0.01)
	}
	for j := range cj {
		cj[j] = T(rng.Float64()*0.1 + 0.01)
		kbi[j] = 1
	}
	g.MakeResident(w.Data, cij.Data, ci, cj, bias, kbi)

	idx := make([][]int32, batch)
	for s := range idx {
		idx[s] = []int32{int32(s % in), int32((s * 7) % in)}
	}
	act := tensor.NewDense[T](batch, outs)
	for i := range act.Data {
		act.Data[i] = T(rng.Float64())
	}
	out := tensor.NewDense[T](batch, outs)

	g.ResetStats()
	g.OneHotMeanLerp(ci, idx, 0.01)
	g.OneHotOuterLerp(cij, idx, act, 0.01, nil)
	g.UpdateWeights(w, ci, cj, cij, nil, 1e-9)
	g.UpdateBias(bias, kbi, cj, 1e-9)
	g.OneHotMatMul(out, idx, w, nil)
	g.AddBias(out, bias)
	g.SoftmaxGroups(out, 1, outs, 1)
	return g.Stats()
}

// idxUploadBytes is the per-run one-hot index traffic of driveGPUSim:
// 3 index-consuming kernels × batch 8 × 2 indices × 4 bytes.
const idxUploadBytes = 3 * 8 * 2 * 4

// TestGPUSimF32ChargesHalfTheFloatBytes is the regression test for the
// transfer ledger's element-size accounting: it used to hard-code 8
// bytes/element, so a float32 offload was charged float64 traffic. After
// subtracting the precision-independent 4-byte one-hot index uploads, the
// float32 run must charge exactly half the float64 run's bytes.
func TestGPUSimF32ChargesHalfTheFloatBytes(t *testing.T) {
	s64 := driveGPUSim(NewGPUSim(1, PolicyOffloaded), rand.New(rand.NewSource(5)))
	s32 := driveGPUSim(NewGPUSimOf[float32](1, PolicyOffloaded), rand.New(rand.NewSource(5)))

	if s64.KernelLaunches != s32.KernelLaunches {
		t.Fatalf("launch counts differ: f64 %d, f32 %d", s64.KernelLaunches, s32.KernelLaunches)
	}
	f64Float := s64.BytesH2D - idxUploadBytes
	f32Float := s32.BytesH2D - idxUploadBytes
	if f64Float <= 0 || f32Float <= 0 {
		t.Fatalf("index accounting assumption broken: f64 %d, f32 %d", f64Float, f32Float)
	}
	if f32Float*2 != f64Float {
		t.Fatalf("H2D float bytes: f32 %d, f64 %d — want exactly half", f32Float, f64Float)
	}
	if s32.BytesD2H*2 != s64.BytesD2H {
		t.Fatalf("D2H bytes: f32 %d, f64 %d — want exactly half", s32.BytesD2H, s64.BytesD2H)
	}
}

// TestGPUSimResidencyAtBothPrecisions pins buffers and checks the offloaded
// policy stops charging them at either element width.
func TestGPUSimResidencyAtBothPrecisions(t *testing.T) {
	run := func(t *testing.T, es int64, stats func() TransferStats, lerp func()) {
		t.Helper()
		before := stats()
		lerp()
		after := stats()
		if got := after.BytesH2D - before.BytesH2D; got != 0 {
			t.Fatalf("resident buffer charged %d H2D bytes", got)
		}
		if got := after.BytesD2H - before.BytesD2H; got != 0 {
			t.Fatalf("resident buffer charged %d D2H bytes", got)
		}
		_ = es
	}
	t.Run("f64", func(t *testing.T) {
		g := NewGPUSim(1, PolicyOffloaded)
		dst := make([]float64, 32)
		src := make([]float64, 32)
		g.MakeResident(dst, src)
		run(t, 8, g.Stats, func() { g.Lerp(dst, src, 0.5) })
	})
	t.Run("f32", func(t *testing.T) {
		g := NewGPUSimOf[float32](1, PolicyOffloaded)
		dst := make([]float32, 32)
		src := make([]float32, 32)
		g.MakeResident(dst, src)
		run(t, 4, g.Stats, func() { g.Lerp(dst, src, 0.5) })
	})
}

// TestGPUSimCompanionSharesLedger: the float32 companion a gpusim hands the
// reduced-precision core path must account into the float64 simulator's
// ledger, so a mixed-precision model's forward traffic stays observable
// through the handle the caller holds.
func TestGPUSimCompanionSharesLedger(t *testing.T) {
	g := NewGPUSim(1, PolicyOffloaded)
	c32, ok := any(g.Kernels32()).(*GPUSim[float32])
	if !ok {
		t.Fatal("Kernels32 did not return a float32 GPU simulator")
	}
	if c32.Workers() != g.Workers() {
		t.Fatalf("companion workers %d != %d", c32.Workers(), g.Workers())
	}

	before := g.Stats()
	dst := make([]float32, 64)
	src := make([]float32, 64)
	c32.Lerp(dst, src, 0.5)
	after := g.Stats()
	if after.KernelLaunches != before.KernelLaunches+1 {
		t.Fatalf("companion launch invisible in shared ledger: %+v -> %+v", before, after)
	}
	if got := after.BytesH2D - before.BytesH2D; got != 4*64 {
		t.Fatalf("companion H2D charged %d bytes, want %d (sizeof(float32)*64)", got, 4*64)
	}

	// Residency pinned via the companion suppresses its charges and shares
	// the policy switch.
	c32.MakeResident(dst, src)
	mid := g.Stats()
	c32.Lerp(dst, src, 0.5)
	if got := g.Stats().BytesH2D - mid.BytesH2D; got != 0 {
		t.Fatalf("resident companion buffer charged %d H2D bytes", got)
	}
	g.SetPolicy(PolicyChatty)
	mid = g.Stats()
	c32.Lerp(dst, src, 0.5)
	if got := g.Stats().BytesH2D - mid.BytesH2D; got != 4*64 {
		t.Fatalf("chatty policy did not reach the companion: charged %d", got)
	}
}

// TestGPUSimFusedLayerStepAccounting is the whole-layer offload regression
// test: with the model state device-resident, one fused LayerStep must cost
// exactly one kernel launch and upload only the one-hot index batch — zero
// float H2D traffic and zero D2H (the in-pass activations are device scratch,
// never downloaded). The composed sequence for the same step costs several
// launches and repeated index uploads; the test pins both sides of that gap.
func TestGPUSimFusedLayerStepAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := newLayerState[float64](rng, 8, true, false)
	g := NewGPUSim(2, PolicyOffloaded)
	g.MakeResident(s.w.Data, s.bias, s.ci, s.cj, s.cij.Data, s.hyp.Kbi)

	g.ResetStats()
	s.step(g)
	st := g.Stats()
	var wantIdx int64
	for _, a := range s.idx {
		wantIdx += int64(4 * len(a))
	}
	if st.KernelLaunches != 1 {
		t.Fatalf("fused step launches = %d, want 1", st.KernelLaunches)
	}
	if st.BytesH2D != wantIdx {
		t.Fatalf("fused step H2D = %d, want %d (indices only)", st.BytesH2D, wantIdx)
	}
	if st.BytesD2H != 0 {
		t.Fatalf("fused step D2H = %d, want 0", st.BytesD2H)
	}

	// The composed sequence on the same resident state must cost strictly
	// more launches and more index upload traffic — the quantitative offload
	// argument the fused path exists for.
	g.ResetStats()
	s.composed(g)
	cs := g.Stats()
	if cs.KernelLaunches <= 1 {
		t.Fatalf("composed sequence launches = %d, want > 1", cs.KernelLaunches)
	}
	if cs.BytesH2D <= wantIdx {
		t.Fatalf("composed H2D = %d, want > %d (indices re-uploaded per kernel)",
			cs.BytesH2D, wantIdx)
	}

	// Support noise is generated on the device from its key: a noisy step
	// uploads the indices and nothing else.
	noisy := newLayerState[float64](rand.New(rand.NewSource(10)), 8, false, true)
	g2 := NewGPUSim(1, PolicyOffloaded)
	g2.MakeResident(noisy.w.Data, noisy.bias, noisy.ci, noisy.cj, noisy.cij.Data, noisy.hyp.Kbi)
	g2.ResetStats()
	noisy.step(g2)
	st2 := g2.Stats()
	var wantIdx2 int64
	for _, a := range noisy.idx {
		wantIdx2 += int64(4 * len(a))
	}
	if st2.KernelLaunches != 1 {
		t.Fatalf("noisy fused step launches = %d, want 1", st2.KernelLaunches)
	}
	if st2.BytesH2D != wantIdx2 {
		t.Fatalf("noisy fused step H2D = %d, want %d (indices only)", st2.BytesH2D, wantIdx2)
	}
}

// TestGPUSimChargeUpload: host-side rewrites of pinned buffers (the
// mixed-precision sync32 recast) charge H2D bytes without losing residency.
func TestGPUSimChargeUpload(t *testing.T) {
	g := NewGPUSimOf[float32](1, PolicyOffloaded)
	w := make([]float32, 100)
	g.MakeResident(w)
	before := g.Stats()
	g.ChargeUpload(w)
	if got := g.Stats().BytesH2D - before.BytesH2D; got != 4*100 {
		t.Fatalf("ChargeUpload charged %d bytes, want %d", got, 4*100)
	}
	// Still resident: a launch reading it charges nothing extra.
	mid := g.Stats()
	g.Lerp(w, w, 0.5)
	if got := g.Stats().BytesH2D - mid.BytesH2D; got != 0 {
		t.Fatalf("buffer lost residency after ChargeUpload: %d bytes", got)
	}
}
