package backend

import (
	"fmt"
	"sync"
	"unsafe"

	"streambrain/internal/tensor"
)

func init() {
	Register("gpusim", func(workers int) Backend { return NewGPUSim(workers, PolicyOffloaded) })
	Register32("gpusim", func(workers int) Backend32 {
		return NewGPUSimOf[float32](workers, PolicyOffloaded)
	})
}

// TransferPolicy selects how the GPU simulator accounts host↔device traffic.
type TransferPolicy int

const (
	// PolicyOffloaded models StreamBrain's CUDA backend: model state
	// (weights, biases, traces) is device-resident, so only per-batch inputs
	// are uploaded and per-batch outputs downloaded. This is the design the
	// paper credits with removing Amdahl serialization points (§III-A).
	PolicyOffloaded TransferPolicy = iota
	// PolicyChatty models a naive accelerator port: every kernel call
	// uploads all operands and downloads all results. The offload ablation
	// bench contrasts the two policies' transfer volumes.
	PolicyChatty
)

// String implements fmt.Stringer.
func (p TransferPolicy) String() string {
	switch p {
	case PolicyOffloaded:
		return "offloaded"
	case PolicyChatty:
		return "chatty"
	}
	return fmt.Sprintf("TransferPolicy(%d)", int(p))
}

// TransferStats accumulates the modeled device traffic.
type TransferStats struct {
	KernelLaunches int64
	BytesH2D       int64 // host → device
	BytesD2H       int64 // device → host
}

// gpuLedger is the device model shared by a simulator and its other-
// precision companion (see Kernels32): one policy, one transfer ledger, so
// a mixed-precision model (float64 training state, float32 forward path)
// reports all of its traffic through the simulator the caller holds.
type gpuLedger struct {
	mu     sync.Mutex
	policy TransferPolicy
	stats  TransferStats
}

// GPUSim simulates a fully-offloaded accelerator backend. Compute is executed
// by the Parallel kernels (a dedicated "device" worker team); what makes it a
// GPU model is the buffer-residency ledger: the simulator tracks which
// buffers live on the device and charges H2D/D2H transfer bytes according to
// the active TransferPolicy. Benchmarks read the ledger to reproduce the
// paper's offload-vs-chatty argument quantitatively.
//
// Transfer bytes are charged at sizeof(T) per element — the float32
// instantiation moves exactly half the bytes of the float64 one for the same
// kernel sequence, which is the memory-bandwidth half of the paper's
// reduced-precision argument (one-hot index uploads stay 4 bytes/index at
// every precision; see idxBytes).
type GPUSim[T tensor.Float] struct {
	dev *Parallel[T]
	led *gpuLedger

	// step executes fused whole-layer offload (LayerStep) on the modeled
	// device — the full_cuda substitution: one launch per training step
	// instead of one per kernel.
	step *Fused[T]

	// resident is this precision's buffer set; it shares the ledger mutex
	// so companion simulators account atomically against one device model.
	resident map[*T]bool
}

// elemSize is the modeled per-element transfer cost: sizeof(T).
func elemSize[T tensor.Float]() int64 {
	var z T
	return int64(unsafe.Sizeof(z))
}

// NewGPUSim returns a float64 GPU simulator with the given device
// worker-team size.
func NewGPUSim(workers int, policy TransferPolicy) *GPUSim[float64] {
	return NewGPUSimOf[float64](workers, policy)
}

// NewGPUSimOf returns a GPU simulator of the given precision.
func NewGPUSimOf[T tensor.Float](workers int, policy TransferPolicy) *GPUSim[T] {
	return &GPUSim[T]{
		dev:      NewParallelOf[T](workers),
		led:      &gpuLedger{policy: policy},
		step:     NewFusedOf[T](workers),
		resident: make(map[*T]bool),
	}
}

// Name implements Kernels.
func (g *GPUSim[T]) Name() string { return "gpusim" }

// Workers implements Kernels.
func (g *GPUSim[T]) Workers() int { return g.dev.Workers() }

// Kernels32 returns a float32 simulator on the same modeled device: same
// worker team, same policy, same transfer ledger (its traffic shows up in
// this simulator's Stats). The reduced-precision core path (DESIGN.md §9)
// discovers it through this method, so a Precision=Float32 model on gpusim
// keeps its forward traffic visible to whoever holds the float64 handle.
func (g *GPUSim[T]) Kernels32() Backend32 {
	return &GPUSim[float32]{
		dev:      NewParallelOf[float32](g.dev.Workers()),
		led:      g.led,
		step:     NewFusedOf[float32](g.dev.Workers()),
		resident: make(map[*float32]bool),
	}
}

// SetPolicy switches the transfer-accounting policy (shared with
// companions).
func (g *GPUSim[T]) SetPolicy(p TransferPolicy) {
	g.led.mu.Lock()
	defer g.led.mu.Unlock()
	g.led.policy = p
}

// Stats returns a snapshot of the transfer ledger (companion traffic
// included).
func (g *GPUSim[T]) Stats() TransferStats {
	g.led.mu.Lock()
	defer g.led.mu.Unlock()
	return g.led.stats
}

// ResetStats clears the ledger (buffer residency is preserved).
func (g *GPUSim[T]) ResetStats() {
	g.led.mu.Lock()
	defer g.led.mu.Unlock()
	g.led.stats = TransferStats{}
}

// key identifies a buffer by the address of its first element; an empty
// buffer has no identity and is never charged.
func key[T tensor.Float](s []T) *T {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}

// MakeResident pins buffers to the device: they are uploaded once (charged
// now) and never again under PolicyOffloaded. The BCPNN trainer pins its
// weights, biases and traces at layer construction, mirroring cudaMalloc'd
// state in StreamBrain's CUDA backend.
func (g *GPUSim[T]) MakeResident(bufs ...[]T) {
	g.led.mu.Lock()
	defer g.led.mu.Unlock()
	for _, b := range bufs {
		k := key(b)
		if k == nil || g.resident[k] {
			continue
		}
		g.resident[k] = true
		g.led.stats.BytesH2D += elemSize[T]() * int64(len(b))
	}
}

// ChargeUpload charges an H2D transfer for buffers that were rewritten on
// the host while staying device-resident — the mixed-precision parameter
// refresh (core's sync32 recasts float64 W into the pinned float32 image on
// the host, then re-uploads it). Residency is unchanged: the buffers remain
// pinned, only the re-upload cost is recorded.
func (g *GPUSim[T]) ChargeUpload(bufs ...[]T) {
	g.led.mu.Lock()
	defer g.led.mu.Unlock()
	es := elemSize[T]()
	for _, b := range bufs {
		g.led.stats.BytesH2D += es * int64(len(b))
	}
}

// launch charges one kernel launch plus transfers for the operand buffers:
// ins are read by the kernel (H2D if not resident), outs are written (D2H if
// not resident). Under PolicyChatty residency is ignored and everything
// moves every call.
func (g *GPUSim[T]) launch(ins [][]T, outs [][]T) {
	g.led.mu.Lock()
	defer g.led.mu.Unlock()
	g.led.stats.KernelLaunches++
	es := elemSize[T]()
	for _, b := range ins {
		if g.led.policy == PolicyChatty || !g.resident[key(b)] {
			g.led.stats.BytesH2D += es * int64(len(b))
		}
	}
	for _, b := range outs {
		if g.led.policy == PolicyChatty || !g.resident[key(b)] {
			g.led.stats.BytesD2H += es * int64(len(b))
		}
	}
}

// idxBytes models the upload cost of a one-hot index batch. Indices are
// int32 positions, not matrix elements, so they cost 4 bytes each at every
// precision — reduced precision halves float traffic only.
func (g *GPUSim[T]) idxBytes(idx [][]int32) {
	var n int64
	for _, a := range idx {
		n += int64(4 * len(a))
	}
	g.led.mu.Lock()
	g.led.stats.BytesH2D += n
	g.led.mu.Unlock()
}

// partial is an operand charged at a modeled element count instead of its
// full buffer length — the sparse kernels move only active-block panels.
type partial[T tensor.Float] struct {
	buf   []T
	elems int64
}

// launchPartial is launch with per-operand element counts: one kernel launch,
// H2D for non-resident (or chatty) inputs, D2H for non-resident (or chatty)
// outputs, each charged at the operand's modeled element count. The sparse
// kernels route through it so the cost model charges only active blocks.
func (g *GPUSim[T]) launchPartial(ins, outs []partial[T]) {
	g.led.mu.Lock()
	defer g.led.mu.Unlock()
	g.led.stats.KernelLaunches++
	es := elemSize[T]()
	for _, p := range ins {
		if g.led.policy == PolicyChatty || !g.resident[key(p.buf)] {
			g.led.stats.BytesH2D += es * p.elems
		}
	}
	for _, p := range outs {
		if g.led.policy == PolicyChatty || !g.resident[key(p.buf)] {
			g.led.stats.BytesD2H += es * p.elems
		}
	}
}

// MatMul implements Kernels.
func (g *GPUSim[T]) MatMul(dst, a, b *tensor.Dense[T]) {
	g.launch([][]T{a.Data, b.Data}, [][]T{dst.Data})
	g.dev.MatMul(dst, a, b)
}

// MatMulATB implements Kernels.
func (g *GPUSim[T]) MatMulATB(dst, a, b *tensor.Dense[T]) {
	g.launch([][]T{a.Data, b.Data}, [][]T{dst.Data})
	g.dev.MatMulATB(dst, a, b)
}

// OneHotMatMul implements Kernels. One launch; the weight read is charged
// at the index's active-element count.
func (g *GPUSim[T]) OneHotMatMul(dst *tensor.Dense[T], idx [][]int32, w *tensor.Dense[T],
	bi *tensor.BlockIndex) {
	g.idxBytes(idx)
	g.launchPartial([]partial[T]{blocksOf(w, bi)}, []partial[T]{full(dst.Data)})
	g.dev.OneHotMatMul(dst, idx, w, bi)
}

// AddBias implements Kernels.
func (g *GPUSim[T]) AddBias(m *tensor.Dense[T], bias []T) {
	g.launch([][]T{bias}, [][]T{m.Data})
	g.dev.AddBias(m, bias)
}

// SoftmaxGroups implements Kernels.
func (g *GPUSim[T]) SoftmaxGroups(m *tensor.Dense[T], groups, width int, temperature float64) {
	g.launch(nil, [][]T{m.Data})
	g.dev.SoftmaxGroups(m, groups, width, temperature)
}

// Lerp implements Kernels.
func (g *GPUSim[T]) Lerp(dst, src []T, t float64) {
	g.launch([][]T{src}, [][]T{dst})
	g.dev.Lerp(dst, src, t)
}

// LerpMatrix implements Kernels.
func (g *GPUSim[T]) LerpMatrix(dst, src *tensor.Dense[T], t float64) {
	g.launch([][]T{src.Data}, [][]T{dst.Data})
	g.dev.LerpMatrix(dst, src, t)
}

// OneHotMeanLerp implements Kernels.
func (g *GPUSim[T]) OneHotMeanLerp(ci []T, idx [][]int32, t float64) {
	g.idxBytes(idx)
	g.launch(nil, [][]T{ci})
	g.dev.OneHotMeanLerp(ci, idx, t)
}

// OneHotOuterLerp implements Kernels. The joint-trace write moves only the
// blocks the index covers — silent blocks are frozen, so the modeled kernel
// never touches them.
func (g *GPUSim[T]) OneHotOuterLerp(cij *tensor.Dense[T], idx [][]int32, act *tensor.Dense[T],
	t float64, bi *tensor.BlockIndex) {
	g.idxBytes(idx)
	g.launchPartial([]partial[T]{full(act.Data)}, []partial[T]{blocksOf(cij, bi)})
	g.dev.OneHotOuterLerp(cij, idx, act, t, bi)
}

// OuterLerp implements Kernels.
func (g *GPUSim[T]) OuterLerp(cij *tensor.Dense[T], a, b *tensor.Dense[T], t float64) {
	g.launch([][]T{a.Data, b.Data}, [][]T{cij.Data})
	g.dev.OuterLerp(cij, a, b, t)
}

// UpdateWeights implements Kernels. Both the joint-trace read and the weight
// write are charged at the index's active-element count.
func (g *GPUSim[T]) UpdateWeights(w *tensor.Dense[T], ci, cj []T, cij *tensor.Dense[T],
	bi *tensor.BlockIndex, eps float64) {
	g.launchPartial([]partial[T]{full(ci), full(cj), blocksOf(cij, bi)},
		[]partial[T]{blocksOf(w, bi)})
	g.dev.UpdateWeights(w, ci, cj, cij, bi, eps)
}

// UpdateBias implements Kernels.
func (g *GPUSim[T]) UpdateBias(bias, kbi, cj []T, eps float64) {
	g.launch([][]T{kbi, cj}, [][]T{bias})
	g.dev.UpdateBias(bias, kbi, cj, eps)
}

// full returns a partial operand charged at its whole buffer length.
func full[T tensor.Float](b []T) partial[T] {
	return partial[T]{buf: b, elems: int64(len(b))}
}

// blocksOf returns a partial operand for a block-tiled matrix (W or Cij),
// charged at the index's active-element count: the modeled kernel gathers and
// scatters only the active (input HCU × hidden HCU) panels. nil charges the
// whole matrix.
func blocksOf[T tensor.Float](m *tensor.Dense[T], bi *tensor.BlockIndex) partial[T] {
	return partial[T]{buf: m.Data, elems: blockElems(m, bi)}
}

// blockElems returns the number of elements of m the index covers — all of
// them for nil.
func blockElems[T tensor.Float](m *tensor.Dense[T], bi *tensor.BlockIndex) int64 {
	if bi == nil {
		return int64(len(m.Data))
	}
	return bi.ActiveElems()
}

// LayerStep implements LayerStepper: the whole-layer offload the paper's
// full_cuda backend performs. The entire training step is one device launch;
// with the model state resident (the trainer pins it at construction) the
// only H2D traffic under PolicyOffloaded is the one-hot index batch plus any
// pre-drawn support noise, and nothing comes back — the activations are
// device scratch consumed in-pass, never downloaded. The composed sequence
// for the same step costs six-plus launches and repeated index uploads. W
// moves in the receptive field's active panels, Cij in the trace index's;
// the short vectors move whole.
func (g *GPUSim[T]) LayerStep(idx [][]int32, act *tensor.Dense[T], ci, cj []T,
	cij, w *tensor.Dense[T], bias []T, hyper LayerHyper[T]) {
	g.idxBytes(idx)
	ins := []partial[T]{blocksOf(w, hyper.Blocks), full(bias), full(ci), full(cj),
		blocksOf(cij, hyper.Trace), full(hyper.Kbi)}
	if hyper.Noise != nil {
		ins = append(ins, full(hyper.Noise))
	}
	outs := []partial[T]{full(ci), full(cj), blocksOf(cij, hyper.Trace),
		blocksOf(w, hyper.Blocks), full(bias), full(hyper.Kbi)}
	g.launchPartial(ins, outs)
	g.step.LayerStep(idx, act, ci, cj, cij, w, bias, hyper)
}
