package core

import (
	"time"

	"streambrain/internal/tensor"
)

// This file is the incremental-training entry point the streaming pipeline
// (internal/stream) drives. BCPNN needs no special online mode: the trace
// update is already a per-batch exponential moving average, so continual
// learning is the batch rule applied to micro-batches as they arrive
// (DESIGN.md §7). PartialFit reuses exactly the kernels the batch trainer
// uses — same Hidden.TrainBatch, same Readout.TrainBatch — it only drops the
// epoch loop around them.

// PartialFit performs one incremental training step on a micro-batch: an
// unsupervised trace update of the hidden layer followed by a supervised
// update of the readout on the resulting activations. The first call seeds
// the input marginals from the batch (as TrainUnsupervised seeds them from
// the first epoch's sample); callers that warm-start with Train have already
// seeded and the call proceeds directly.
//
// Structural plasticity is deliberately not part of the step — streams have
// no epochs, so the caller decides the cadence and invokes
// Hidden.StructuralUpdate explicitly.
func (n *Network) PartialFit(idx [][]int32, labels []int) {
	if len(idx) == 0 {
		return
	}
	if len(idx) != len(labels) {
		panic("core: PartialFit batch/label length mismatch")
	}
	start := time.Now()
	if !n.tracesSeeded {
		n.Hidden.InitTracesFromData(idx)
		n.tracesSeeded = true
	}
	if n.partialAct == nil || n.partialAct.Rows != len(idx) {
		n.partialAct = tensor.NewMatrix(len(idx), n.Hidden.Units())
	}
	// The step hands back the batch activations it computed against the
	// pre-step parameters (DESIGN.md §14), so the readout trains on them
	// and the streaming step runs one forward pass per micro-batch; only a
	// noisy batch needs a separate, noise-free Forward.
	if !n.Hidden.TrainBatchInto(idx, n.partialAct) {
		n.Hidden.Forward(idx, n.partialAct)
	}
	n.Out.TrainBatch(n.partialAct, labels)
	n.TrainTime += time.Since(start)
}

// SetThreshold overrides the binary decision threshold. The streaming
// pipeline calibrates the cut on its sliding window (the online counterpart
// of CalibrateThreshold, which needs the whole training set up front).
func (n *Network) SetThreshold(t float64) { n.threshold = t }
