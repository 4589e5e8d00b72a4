package backend

import (
	"math/rand"
	"testing"

	"streambrain/internal/posit"
	"streambrain/internal/tensor"
)

// simState builds the golden-ledger operand set: a masked receptive field,
// the trace index nil (dense regime) or the receptive field (sparse regime),
// optional keyed support noise.
func simState[T tensor.Float](sparse, noisy bool) *layerState[T] {
	s := newLayerState[T](rand.New(rand.NewSource(21)), 6, true, noisy)
	if sparse {
		s.hyp.Trace = s.hyp.Blocks
	}
	return s
}

// driveSim runs one LayerStep (then calls mark), the composed sequence of
// the same step, and the two kernels the composed step does not issue — so
// every kernel's launch description reaches the ledger.
func driveSim[T tensor.Float](be Kernels[T], s *layerState[T], mark func()) {
	s.step(be)
	mark()
	s.composed(be)
	x := tensor.NewDense[T](s.act.Rows, s.w.Rows)
	for i := range x.Data {
		x.Data[i] = T(i%7) / 7
	}
	be.MatMul(s.act, x, s.w)
	be.OuterLerp(s.cij, x, s.act, 0.1)
}

// pin makes the layer's model state device-resident, as core does at
// construction.
func pin[T tensor.Float](g interface{ MakeResident(...[]T) }, s *layerState[T]) {
	g.MakeResident(s.w.Data, s.bias, s.ci, s.cj, s.cij.Data, s.hyp.Kbi)
}

// simCase is one golden configuration: dense or sparse trace regime, with
// or without support noise.
type simCase struct {
	name          string
	sparse, noisy bool
}

var simCases = []simCase{
	{"dense", false, false}, {"dense/noisy", false, true},
	{"sparse", true, false}, {"sparse/noisy", true, true},
}

// goldenTransfer holds the gpusim ledger after the LayerStep and after the
// whole driveSim sequence, keyed precision/case/policy. "companion" is a
// float32 Kernels32 simulator read through its float64 host's Stats. The
// noise is drawn on the device, so a noisy case moves the bytes of its
// noise-free twin.
var goldenTransfer = map[string][2]TransferStats{
	"f64/dense/offloaded":              {{1, 6456, 0}, {11, 10752, 2880}},
	"f64/dense/chatty":                 {{1, 11168, 4712}, {11, 21576, 15064}},
	"f64/dense/noisy/offloaded":        {{1, 6456, 0}, {11, 10752, 2880}},
	"f64/dense/noisy/chatty":           {{1, 11168, 4712}, {11, 21576, 15064}},
	"f64/sparse/offloaded":             {{1, 6456, 0}, {11, 10752, 2880}},
	"f64/sparse/chatty":                {{1, 9568, 3112}, {11, 19976, 11864}},
	"f64/sparse/noisy/offloaded":       {{1, 6456, 0}, {11, 10752, 2880}},
	"f64/sparse/noisy/chatty":          {{1, 9568, 3112}, {11, 19976, 11864}},
	"f32/dense/offloaded":              {{1, 3300, 0}, {11, 5664, 1440}},
	"f32/dense/chatty":                 {{1, 5656, 2356}, {11, 11076, 7532}},
	"f32/dense/noisy/offloaded":        {{1, 3300, 0}, {11, 5664, 1440}},
	"f32/dense/noisy/chatty":           {{1, 5656, 2356}, {11, 11076, 7532}},
	"f32/sparse/offloaded":             {{1, 3300, 0}, {11, 5664, 1440}},
	"f32/sparse/chatty":                {{1, 4856, 1556}, {11, 10276, 5932}},
	"f32/sparse/noisy/offloaded":       {{1, 3300, 0}, {11, 5664, 1440}},
	"f32/sparse/noisy/chatty":          {{1, 4856, 1556}, {11, 10276, 5932}},
	"companion/dense/offloaded":        {{1, 3300, 0}, {11, 5664, 1440}},
	"companion/dense/chatty":           {{1, 5656, 2356}, {11, 11076, 7532}},
	"companion/dense/noisy/offloaded":  {{1, 3300, 0}, {11, 5664, 1440}},
	"companion/dense/noisy/chatty":     {{1, 5656, 2356}, {11, 11076, 7532}},
	"companion/sparse/offloaded":       {{1, 3300, 0}, {11, 5664, 1440}},
	"companion/sparse/chatty":          {{1, 4856, 1556}, {11, 10276, 5932}},
	"companion/sparse/noisy/offloaded": {{1, 3300, 0}, {11, 5664, 1440}},
	"companion/sparse/noisy/chatty":    {{1, 4856, 1556}, {11, 10276, 5932}},
}

// goldenPipeline holds the fpgasim cost model after the LayerStep and after
// the whole driveSim sequence. A noisy step charges the noise add (batch ×
// units operations) to the support stage.
var goldenPipeline = map[string][2]PipelineStats{
	"dense": {
		{1, 1, [numStages]int64{330, 90, 975, 190}, [numStages]int64{330, 90, 975, 190}, 975},
		{1, 11, [numStages]int64{2820, 180, 2310, 365}, [numStages]int64{2820, 180, 2310, 365}, 5065}},
	"dense/noisy": {
		{1, 1, [numStages]int64{420, 90, 975, 190}, [numStages]int64{420, 90, 975, 190}, 975},
		{1, 11, [numStages]int64{2910, 180, 2310, 365}, [numStages]int64{2910, 180, 2310, 365}, 5065}},
	"sparse": {
		{1, 1, [numStages]int64{330, 90, 475, 190}, [numStages]int64{330, 90, 475, 190}, 475},
		{1, 11, [numStages]int64{2820, 180, 1310, 365}, [numStages]int64{2820, 180, 1310, 365}, 4065}},
	"sparse/noisy": {
		{1, 1, [numStages]int64{420, 90, 475, 190}, [numStages]int64{420, 90, 475, 190}, 475},
		{1, 11, [numStages]int64{2910, 180, 1310, 365}, [numStages]int64{2910, 180, 1310, 365}, 4065}},
}

// TestSimLedgerGolden pins the absolute ledger values of both simulators —
// launches, bytes and cycles — over the fused step and every composed
// kernel, so a change to any kernel's launch description shows as a number,
// not only as a broken relation.
func TestSimLedgerGolden(t *testing.T) {
	for _, c := range simCases {
		for _, pol := range []TransferPolicy{PolicyOffloaded, PolicyChatty} {
			suffix := "/" + c.name + "/" + pol.String()
			var got [2]TransferStats

			g64 := NewGPUSim(2, pol)
			s64 := simState[float64](c.sparse, c.noisy)
			pin(g64, s64)
			driveSim(g64, s64, func() { got[0] = g64.Stats() })
			got[1] = g64.Stats()
			checkGolden(t, "f64"+suffix, got, goldenTransfer)

			g32 := NewGPUSimOf[float32](2, pol)
			s32 := simState[float32](c.sparse, c.noisy)
			pin(g32, s32)
			driveSim(g32, s32, func() { got[0] = g32.Stats() })
			got[1] = g32.Stats()
			checkGolden(t, "f32"+suffix, got, goldenTransfer)

			host := NewGPUSim(2, pol)
			c32 := host.Kernels32().(*GPUSim[float32])
			sc := simState[float32](c.sparse, c.noisy)
			pin(c32, sc)
			driveSim(c32, sc, func() { got[0] = host.Stats() })
			got[1] = host.Stats()
			checkGolden(t, "companion"+suffix, got, goldenTransfer)
		}
		f := NewFPGASim(2, posit.Posit16)
		var got [2]PipelineStats
		driveSim(f, simState[float64](c.sparse, c.noisy), func() { got[0] = f.Pipeline() })
		got[1] = f.Pipeline()
		checkGolden(t, c.name, got, goldenPipeline)
	}
}

func checkGolden[S comparable](t *testing.T, key string, got [2]S, golden map[string][2]S) {
	t.Helper()
	if want, ok := golden[key]; !ok || got != want {
		t.Errorf("%s: ledger after step / sequence = %+v, want %+v", key, got, want)
	}
}

// TestGPUSimChargesAllocateNothing: describing and charging a launch must
// not allocate. At one worker each gpusim call allocates exactly what the
// same call on the bare fused backend does (the worker-team closures of a
// few parallel kernels), so the decorator's own cost is zero.
func TestGPUSimChargesAllocateNothing(t *testing.T) {
	for _, c := range simCases {
		g := NewGPUSim(1, PolicyOffloaded)
		bare := NewFused(1)
		s := simState[float64](c.sparse, c.noisy)
		pin(g, s)
		bi, mean, x := s.hyp.Blocks, make([]float64, len(s.cj)), s.act.Clone()
		sq := tensor.NewMatrix(s.act.Cols, s.act.Cols)
		calls := map[string]func(be Backend){
			"LayerStep":       func(be Backend) { s.step(be) },
			"MatMul":          func(be Backend) { be.MatMul(x, s.act, sq) },
			"OuterLerp":       func(be Backend) { be.OuterLerp(sq, s.act, s.act, 0.1) },
			"OneHotMatMul":    func(be Backend) { be.OneHotMatMul(s.act, s.idx, s.w, bi) },
			"AddBias":         func(be Backend) { be.AddBias(s.act, s.bias) },
			"SoftmaxGroups":   func(be Backend) { be.SoftmaxGroups(s.act, bi.H, bi.M, 1) },
			"Lerp":            func(be Backend) { be.Lerp(s.cj, mean, 0.01) },
			"OneHotMeanLerp":  func(be Backend) { be.OneHotMeanLerp(s.ci, s.idx, 0.01) },
			"OneHotOuterLerp": func(be Backend) { be.OneHotOuterLerp(s.cij, s.idx, s.act, 0.01, s.hyp.Trace) },
			"UpdateWeights":   func(be Backend) { be.UpdateWeights(s.w, s.ci, s.cj, s.cij, bi, 1e-9) },
			"UpdateBias":      func(be Backend) { be.UpdateBias(s.bias, s.hyp.Kbi, s.cj, 1e-9) },
		}
		for name, call := range calls {
			sim := testing.AllocsPerRun(20, func() { call(g) })
			ref := testing.AllocsPerRun(20, func() { call(bare) })
			if sim != ref {
				t.Errorf("%s %s: gpusim %v allocs/call, fused %v — the ledger allocates",
					c.name, name, sim, ref)
			}
		}
	}
}
