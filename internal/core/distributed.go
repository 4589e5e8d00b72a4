package core

import (
	"fmt"

	"streambrain/internal/backend"
	"streambrain/internal/data"
	"streambrain/internal/mpi"
)

// DistributedTrainer runs BCPNN data-parallel training across MPI ranks —
// the scheme §II-B motivates: because learning is local, ranks train on
// disjoint shards and only the probability traces need merging, one
// allreduce-mean per epoch (there is no gradient to synchronize every step).
//
// All ranks start from the identical seed, so their initial layers are
// bit-identical; after every trace allreduce the structural-plasticity
// update is a deterministic function of identical traces, which keeps the
// masks synchronized without any extra communication.
//
// The trainer owns all replicas inside one process and drives them over an
// in-process mpi.World (chan by default; assign a NewTCPWorld to exercise
// the real wire). For worlds where each rank is its own OS process, the
// per-rank body is exported as TrainRank and driven by cmd/streambrain-dist
// (DESIGN.md §10).
type DistributedTrainer struct {
	// World is the fabric the ranks communicate over. NewDistributedTrainer
	// installs the chan fabric; replace it (same rank count) before Train to
	// run the same replicas over loopback TCP.
	World *mpi.World
	// MergeEvery is the number of local batches between hidden-trace
	// allreduces. 1 (the default) keeps replicas bit-identical at every
	// batch boundary — the synchronous scheme; larger values trade staleness
	// for fewer collectives. Hidden MCU identities are exchangeable, so
	// infrequent merging risks averaging units that drifted into different
	// roles; the classifier head has fixed output identities (classes) and
	// is always safe to merge per epoch.
	MergeEvery int
	// nets[r] is rank r's replica.
	nets []*Network
	// shards[r] is rank r's training shard.
	shards []*data.Encoded
}

// DistributedParams rescales the trace rate for an R-rank world:
// τ_R = 1−(1−τ)^R. With R ranks each global step merges R rank-local
// batches, so an epoch contains 1/R as many trace updates as the
// single-rank run; compounding the rate keeps the per-epoch trace
// convergence — and therefore the learned weight magnitudes and the
// classifier's calibration — invariant in the rank count (E9 measures
// exactly this). Every rank of a world must train with the same rescaled
// Params; cmd/streambrain-dist applies it in each rank process.
func DistributedParams(p Params, ranks int) Params {
	scaled := 1.0
	for r := 0; r < ranks; r++ {
		scaled *= 1 - p.Taupdt
	}
	p.Taupdt = 1 - scaled
	return p
}

// ShardRows returns rank r's row indices under the round-robin sharding
// every fabric uses (round-robin keeps shard class balance close to the
// global balance). Rank processes call this so their local shard matches
// what the in-process trainer would have assigned.
func ShardRows(totalRows, ranks, rank int) []int {
	rows := make([]int, 0, (totalRows+ranks-1)/ranks)
	for i := rank; i < totalRows; i += ranks {
		rows = append(rows, i)
	}
	return rows
}

// NewDistributedTrainer builds R identically-seeded network replicas over
// the in-process chan fabric and shards the training set round-robin across
// them. The trace rate is rescaled via DistributedParams.
func NewDistributedTrainer(ranks int, backendName string, workersPerRank int,
	fi, mi, classes int, p Params, train *data.Encoded) *DistributedTrainer {
	p = DistributedParams(p, ranks)
	t := &DistributedTrainer{
		World:      mpi.NewWorld(ranks),
		MergeEvery: 1,
		nets:       make([]*Network, ranks),
		shards:     make([]*data.Encoded, ranks),
	}
	for r := 0; r < ranks; r++ {
		t.nets[r] = NewNetwork(backend.MustNew(backendName, workersPerRank), fi, mi, classes, p)
		t.shards[r] = train.Subset(ShardRows(train.Len(), ranks, r))
	}
	return t
}

// allreduceTraces averages a hidden layer's traces across ranks in place.
func allreduceTraces(c *mpi.Comm, l *HiddenLayer) error {
	for _, buf := range [][]float64{l.Ci, l.Cj, l.Cij.Data, l.Kbi} {
		if err := c.AllreduceMean(buf); err != nil {
			return err
		}
	}
	return nil
}

// allreduceClassifier averages a BCPNN readout's traces across ranks.
func allreduceClassifier(c *mpi.Comm, cl *Classifier) error {
	for _, buf := range [][]float64{cl.Ci, cl.Cj, cl.Cij.Data} {
		if err := c.AllreduceMean(buf); err != nil {
			return err
		}
	}
	return nil
}

// TrainRank runs one rank's side of distributed training over any fabric —
// the SPMD body shared by the in-process trainer and the per-process ranks
// cmd/streambrain-dist forks. n must have been built from DistributedParams
// with this world's rank count, and shard must be this rank's ShardRows
// subset; every rank must call with the same epoch counts and mergeEvery
// (the collective sequence must match or the world stalls into its
// deadline).
//
// Each unsupervised epoch runs the same number of local batches on every
// rank (the global minimum, agreed via an allreduce-min, so collectives
// always pair up; remainder batches are dropped), allreduce-merging the
// hidden traces every mergeEvery batches, then the (deterministic,
// replica-identical) structural update. The supervised phase merges the
// classifier traces once per epoch. Threshold calibration is a local
// decision and stays with the caller (rank 0 calibrates on its shard).
func TrainRank(c *mpi.Comm, n *Network, shard *data.Encoded,
	unsupEpochs, supEpochs, mergeEvery int) error {
	if mergeEvery < 1 {
		mergeEvery = 1
	}
	// Matched batch count: every rank must issue the same collective
	// sequence. The minimum over shards is itself a collective, so a rank
	// process never needs its peers' shard sizes up front.
	count := []float64{float64(shard.Len() / n.p.BatchSize)}
	if err := c.Allreduce(count, mpi.OpMin); err != nil {
		return fmt.Errorf("core: matching batch counts: %w", err)
	}
	nBatches := int(count[0])
	if nBatches < 1 {
		nBatches = 1
	}
	if unsupEpochs > 0 {
		// Seed input marginals from the local shard, then average so every
		// replica starts from the global empirical marginals.
		n.Hidden.InitTracesFromData(shard.Idx)
		if err := allreduceTraces(c, n.Hidden); err != nil {
			return err
		}
		n.Hidden.refreshParameters()
		n.tracesSeeded = true
	}
	for e := 0; e < unsupEpochs; e++ {
		// Same annealed symmetry-breaking noise schedule as the single-rank
		// trainer; identical seeds keep draws replica-equal.
		anneal := 0.0
		if unsupEpochs > 1 {
			anneal = 1 - float64(e)/float64(unsupEpochs-1)
		}
		n.Hidden.SetNoise(n.p.SupportNoise * anneal)
		// Materialize this epoch's shuffled batches so we can cut off at the
		// matched count.
		var batches [][][]int32
		shard.Batches(n.p.BatchSize, n.rng, func(idx [][]int32, _ []int) {
			batches = append(batches, append([][]int32(nil), idx...))
		})
		// The merge schedule is driven by the agreed nBatches alone, never
		// by len(batches): a rank whose shard ran short (degenerate worlds
		// with fewer rows than ranks) still joins every collective with its
		// current traces, so the world's collective sequences stay matched
		// instead of deadlocking.
		for b := 0; b < nBatches; b++ {
			if b < len(batches) {
				// One LayerStep per local batch (DESIGN.md §14). The
				// post-allreduce refresh below re-derives W and Bias from
				// the merged traces without advancing them, which is what
				// refreshParameters (and not a LayerStep) computes; on
				// fused its weight pass is the step's own row routine.
				n.Hidden.TrainBatch(batches[b])
			}
			if (b+1)%mergeEvery == 0 {
				if err := allreduceTraces(c, n.Hidden); err != nil {
					return err
				}
				n.Hidden.refreshParameters()
			}
		}
		if err := allreduceTraces(c, n.Hidden); err != nil {
			return err
		}
		n.Hidden.refreshParameters()
		n.Hidden.StructuralUpdate()
	}
	cl, isBCPNN := n.Out.(*Classifier)
	for e := 0; e < supEpochs; e++ {
		n.TrainSupervised(shard, 1)
		if isBCPNN {
			if err := allreduceClassifier(c, cl); err != nil {
				return err
			}
			cl.refresh()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
	}
	return nil
}

// Train runs both phases across all ranks of the World and returns rank 0's
// network, which after the final allreduce is representative of all
// replicas. Any rank's communication failure aborts the run with its error.
func (t *DistributedTrainer) Train(unsupEpochs, supEpochs int) (*Network, error) {
	err := t.World.Run(func(c *mpi.Comm) error {
		return TrainRank(c, t.nets[c.Rank()], t.shards[c.Rank()],
			unsupEpochs, supEpochs, t.MergeEvery)
	})
	if err != nil {
		return nil, err
	}
	if supEpochs > 0 {
		t.nets[0].CalibrateThreshold(t.shards[0])
	}
	return t.nets[0], nil
}

// Networks exposes the per-rank replicas (tests verify replica agreement).
func (t *DistributedTrainer) Networks() []*Network { return t.nets }
