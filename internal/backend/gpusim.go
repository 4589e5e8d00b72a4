package backend

import (
	"fmt"
	"sync"

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

// gpuDevice is the device model shared by a simulator and its other-
// precision companion (see Kernels32): one policy, one transfer ledger, so
// a mixed-precision model (float64 training state, float32 forward path)
// reports all of its traffic through the simulator the caller holds.
type gpuDevice struct {
	mu     sync.Mutex
	policy TransferPolicy
	stats  TransferStats
}

// GPUSim simulates a fully-offloaded accelerator backend: the device-cost
// decorator (sim.go) over the fused backend, with a buffer-residency ledger.
// The simulator tracks which buffers live on the device and charges every
// launch's H2D/D2H bytes according to the active TransferPolicy; LayerStep
// is the full_cuda substitution, one launch per training step instead of
// one per kernel. Benchmarks read the ledger to reproduce the paper's
// offload-vs-chatty argument quantitatively.
//
// Transfer bytes are charged at sizeof(T) per element — the float32
// instantiation moves exactly half the bytes of the float64 one for the same
// kernel sequence, which is the memory-bandwidth half of the paper's
// reduced-precision argument (one-hot index uploads stay 4 bytes/index at
// every precision).
type GPUSim[T tensor.Float] struct {
	sim[T]
	device *gpuDevice

	// resident is this precision's buffer set; it shares the device mutex
	// so companion simulators account atomically against one device model.
	resident map[*T]bool
}

// NewGPUSim returns a float64 GPU simulator with the given device
// worker-team size.
func NewGPUSim(workers int, policy TransferPolicy) *GPUSim[float64] {
	return NewGPUSimOf[float64](workers, policy)
}

// NewGPUSimOf returns a GPU simulator of the given precision.
func NewGPUSimOf[T tensor.Float](workers int, policy TransferPolicy) *GPUSim[T] {
	return newGPUSimOn[T](workers, &gpuDevice{policy: policy})
}

func newGPUSimOn[T tensor.Float](workers int, d *gpuDevice) *GPUSim[T] {
	g := &GPUSim[T]{device: d, resident: make(map[*T]bool)}
	g.sim = newSim[T]("gpusim", workers, g)
	return g
}

// Kernels32 returns a float32 simulator on the same modeled device: same
// worker-team size, same policy, same transfer ledger (its traffic shows up
// in this simulator's Stats). The reduced-precision core path (DESIGN.md §9)
// discovers it through this method, so a Precision=Float32 model on gpusim
// keeps its forward traffic visible to whoever holds the float64 handle.
func (g *GPUSim[T]) Kernels32() Backend32 { return newGPUSimOn[float32](g.Workers(), g.device) }

// SetPolicy switches the transfer-accounting policy (shared with
// companions).
func (g *GPUSim[T]) SetPolicy(p TransferPolicy) {
	g.device.mu.Lock()
	defer g.device.mu.Unlock()
	g.device.policy = p
}

// Stats returns a snapshot of the transfer ledger (companion traffic
// included).
func (g *GPUSim[T]) Stats() TransferStats {
	g.device.mu.Lock()
	defer g.device.mu.Unlock()
	return g.device.stats
}

// ResetStats clears the ledger (buffer residency is preserved).
func (g *GPUSim[T]) ResetStats() {
	g.device.mu.Lock()
	defer g.device.mu.Unlock()
	g.device.stats = TransferStats{}
}

// MakeResident pins buffers to the device: they are uploaded once (charged
// now) and never again under PolicyOffloaded. The BCPNN trainer pins its
// weights, biases and traces at layer construction, mirroring cudaMalloc'd
// state in StreamBrain's CUDA backend.
func (g *GPUSim[T]) MakeResident(bufs ...[]T) {
	g.device.mu.Lock()
	defer g.device.mu.Unlock()
	for _, b := range bufs {
		if len(b) == 0 || g.resident[&b[0]] {
			continue
		}
		g.resident[&b[0]] = true
		g.device.stats.BytesH2D += elemSize[T]() * int64(len(b))
	}
}

// ChargeUpload charges an H2D transfer for buffers that were rewritten on
// the host while staying device-resident — the mixed-precision parameter
// refresh (core's sync32 recasts float64 W into the pinned float32 image on
// the host, then re-uploads it). Residency is unchanged: the buffers remain
// pinned, only the re-upload cost is recorded.
func (g *GPUSim[T]) ChargeUpload(bufs ...[]T) {
	g.device.mu.Lock()
	defer g.device.mu.Unlock()
	for _, b := range bufs {
		g.device.stats.BytesH2D += elemSize[T]() * int64(len(b))
	}
}

// charge implements ledger: one kernel launch, the index batch uploaded,
// and each operand moved in its direction unless it is resident. Under
// PolicyChatty residency is ignored and everything moves every call.
func (g *GPUSim[T]) charge(l launch[T]) {
	d := g.device
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.KernelLaunches++
	d.stats.BytesH2D += 4 * activeCount(l.idx)
	for _, o := range l.operands {
		if d.policy == PolicyOffloaded && g.resident[o.key] {
			continue
		}
		if o.dir&opRead != 0 {
			d.stats.BytesH2D += elemSize[T]() * o.elems
		}
		if o.dir&opWrite != 0 {
			d.stats.BytesD2H += elemSize[T]() * o.elems
		}
	}
}
