package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"

	"streambrain/internal/backend"
	"streambrain/internal/sgd"
	"streambrain/internal/tensor"
)

// networkState is the serializable snapshot of a trained network. Traces are
// the complete learning state (weights and biases are derived), so saving
// them preserves the ability to *resume* training, not just to predict —
// the property that makes BCPNN checkpointing trivial compared to
// optimizer-state-laden backprop checkpoints.
type networkState struct {
	Version int
	Params  Params
	Classes int

	// Hidden layer.
	Fi, Mi    int
	HiddenCi  []float64
	HiddenCj  []float64
	HiddenCij []float64
	HiddenKbi []float64
	Mask      []bool

	// BCPNN classifier (nil slices when the readout is not a Classifier).
	ClfCi  []float64
	ClfCj  []float64
	ClfCij []float64

	// ReadoutKind selects the classification head: "" or "bcpnn" for the
	// pure-BCPNN Classifier (v1 states predate the field), "sgd" for the
	// hybrid softmax readout, whose full optimizer state rides in SGDState.
	ReadoutKind string
	SGDState    []byte

	Threshold float64
	Seeded    bool
}

const stateVersion = 2

const (
	readoutBCPNN = "bcpnn"
	readoutSGD   = "sgd"
)

// Save serializes the network's learning state (traces, masks, calibration)
// with encoding/gob. Both readouts round-trip: the pure-BCPNN classifier via
// its traces, the hybrid SGD softmax via its weight and momentum state.
func (n *Network) Save(w io.Writer) error {
	st := networkState{
		Version:   stateVersion,
		Params:    n.p,
		Classes:   n.Out.Classes(),
		Fi:        n.Hidden.Fi,
		Mi:        n.Hidden.Mi,
		HiddenCi:  n.Hidden.Ci,
		HiddenCj:  n.Hidden.Cj,
		HiddenCij: n.Hidden.Cij.Data,
		HiddenKbi: n.Hidden.Kbi,
		Mask:      n.Hidden.Mask,
		Threshold: n.threshold,
		Seeded:    n.tracesSeeded,
	}
	switch out := n.Out.(type) {
	case *Classifier:
		st.ReadoutKind = readoutBCPNN
		st.ClfCi = out.Ci
		st.ClfCj = out.Cj
		st.ClfCij = out.Cij.Data
	case *sgd.Softmax:
		st.ReadoutKind = readoutSGD
		var blob bytes.Buffer
		if err := out.Save(&blob); err != nil {
			return fmt.Errorf("core: save: %w", err)
		}
		st.SGDState = blob.Bytes()
	default:
		return fmt.Errorf("core: Save supports the BCPNN and SGD readouts only (got %T)", n.Out)
	}
	if err := gob.NewEncoder(w).Encode(&st); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// Load reconstructs a network from a Save snapshot onto the given backend
// (the backend choice is an execution concern, not model state, so a model
// saved from "parallel" can be loaded onto "gpusim").
func Load(r io.Reader, be backend.Backend) (*Network, error) {
	var st networkState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	if st.Version < 1 || st.Version > stateVersion {
		return nil, fmt.Errorf("core: load: state version %d, want <= %d", st.Version, stateVersion)
	}
	if err := st.Params.Validate(); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	if st.Params.Precision.Is32() {
		// The model wants the reduced-precision forward path; fail with a
		// useful error here rather than letting NewNetwork panic on a
		// backend (e.g. fpgasim) that has no float32 kernel set.
		if _, err := backend.New32(be.Name(), be.Workers()); err != nil {
			return nil, fmt.Errorf("core: load: %w", err)
		}
	}
	in := st.Fi * st.Mi
	units := st.Params.HCUs * st.Params.MCUs
	if len(st.HiddenCi) != in || len(st.HiddenCj) != units ||
		len(st.HiddenCij) != in*units || len(st.Mask) != st.Fi*st.Params.HCUs {
		return nil, fmt.Errorf("core: load: inconsistent state geometry")
	}
	n := NewNetwork(be, st.Fi, st.Mi, st.Classes, st.Params)
	copy(n.Hidden.Ci, st.HiddenCi)
	copy(n.Hidden.Cj, st.HiddenCj)
	copy(n.Hidden.Cij.Data, st.HiddenCij)
	copy(n.Hidden.Kbi, st.HiddenKbi)
	copy(n.Hidden.Mask, st.Mask)
	// The prune/regrow schedule drives K away from round(RF·Fi), so restore
	// it from the mask itself (the exactly-K-per-HCU invariant makes column
	// h=0 representative), and rebuild the block index over the loaded mask.
	k := 0
	for fi := 0; fi < st.Fi; fi++ {
		if st.Mask[fi*st.Params.HCUs] {
			k++
		}
	}
	n.Hidden.K = k
	n.Hidden.maskChanged()
	switch st.ReadoutKind {
	case "", readoutBCPNN:
		if len(st.ClfCi) != units || len(st.ClfCj) != st.Classes ||
			len(st.ClfCij) != units*st.Classes {
			return nil, fmt.Errorf("core: load: inconsistent classifier geometry")
		}
		cl := n.Out.(*Classifier)
		copy(cl.Ci, st.ClfCi)
		copy(cl.Cj, st.ClfCj)
		copy(cl.Cij.Data, st.ClfCij)
		cl.refresh()
	case readoutSGD:
		sm, err := sgd.Load(bytes.NewReader(st.SGDState))
		if err != nil {
			return nil, fmt.Errorf("core: load: %w", err)
		}
		if sm.In() != units || sm.Classes() != st.Classes {
			return nil, fmt.Errorf("core: load: SGD readout geometry %dx%d, want %dx%d",
				sm.In(), sm.Classes(), units, st.Classes)
		}
		n.SetReadout(sm)
	default:
		return nil, fmt.Errorf("core: load: unknown readout kind %q", st.ReadoutKind)
	}
	n.threshold = st.Threshold
	n.tracesSeeded = st.Seeded
	// Re-derive the RNG so resumed training is still seeded (though not
	// bit-identical to an uninterrupted run; document as such).
	n.rng = rand.New(rand.NewSource(st.Params.Seed + 97))
	return n, nil
}

// statesEqual is a test helper comparing the derived parameters of two
// networks (weights and biases), which must match after a round trip.
func statesEqual(a, b *Network, tol float64) bool {
	if !a.Hidden.W.Equal(b.Hidden.W, tol) {
		return false
	}
	ca, ok1 := a.Out.(*Classifier)
	cb, ok2 := b.Out.(*Classifier)
	if !ok1 || !ok2 {
		return false
	}
	return ca.W.Equal(cb.W, tol) && equalSlices(a.Hidden.Bias, b.Hidden.Bias, tol)
}

func equalSlices(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		d := a[i] - b[i]
		if d < -tol || d > tol {
			return false
		}
	}
	return true
}

// Ensure tensor is referenced (Cij reconstruction uses its layout).
var _ = tensor.NewMatrix
