package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"streambrain"
	"streambrain/internal/core"
	"streambrain/internal/data"
	"streambrain/internal/higgs"
	"streambrain/internal/mpi"
	"streambrain/internal/obs"
	"streambrain/internal/tensor"
)

// Sizes of the three training workloads at refSeconds. The geometries are
// never scaled.
const (
	trainEvents    = 40000 // generated; balancing and the split leave 15000 train / 5000 test
	trainBins      = 10
	trainUnits     = 3000 // 1x3000 dense and dist, 4x750 sparse
	predictCalls   = 10   // Predict calls over the whole held-out split
	distRanks      = 2    // the largest world whose wall clock means anything on two cores
	mpiMetricCalls = "streambrain_mpi_allreduce_seconds_count"
	mpiMetricSum   = "streambrain_mpi_allreduce_seconds_sum"
	mpiMetricSent  = "streambrain_mpi_sent_bytes_total"
	mpiMetricGap   = "streambrain_mpi_straggler_gap_seconds"
)

// trainWorkload is train-dense, train-sparse or train-dist: the paper's
// pipeline from generated events to test AUC.
type trainWorkload struct {
	sparse, dist bool

	cfg         streambrain.Config
	train, test *data.Encoded
	model       *streambrain.Model       // dense and sparse
	trainer     *core.DistributedTrainer // dist
	world       *mpi.World
	mpiReg      *obs.Registry
	net         *core.Network // the trained network (rank 0's on dist)

	// What the traced measure leaves for the closure check in probes.
	unsup, sup    time.Duration
	epochDensity  []float64 // mask density each unsupervised epoch trained at
	allreduceSecs float64
}

func (w *trainWorkload) close() {
	if w.world != nil {
		_ = w.world.Close() // tearing down loopback sockets; nothing to report
	}
}

func (w *trainWorkload) setup(b *bench) error {
	events := b.scaled(trainEvents, 800)
	if b.tr == nil {
		train, test, _, err := streambrain.LoadHiggs(streambrain.HiggsOptions{Events: events, Bins: trainBins, Seed: b.seed})
		if err != nil {
			return err
		}
		w.train, w.test = train, test
	} else if err := w.loadTraced(b, events); err != nil {
		return err
	}

	p := streambrain.DefaultParams()
	p.Seed = b.seed
	p.HCUs, p.MCUs = 1, trainUnits
	cfg := streambrain.Config{}
	if w.sparse {
		p.HCUs, p.MCUs = 4, trainUnits/4
		p.Precision = streambrain.Float32
		p.ReceptiveField, p.TargetSparsity, p.SparseCompute = 1.0, 0.8, true
		cfg.Backend, cfg.HybridSGD = "fused", true
	}
	cfg.Params = p
	w.cfg = cfg
	fi, mi, classes := w.train.Hypercolumns, w.train.UnitsPerHC, w.train.Classes

	build := b.tr.begin("streambrain.NewModel", b.phase)
	model, err := streambrain.NewModel(cfg, fi, mi, classes)
	b.tr.finish(build)
	if err != nil {
		return err
	}
	w.model, w.net = model, model.Network()
	if w.dist {
		// The distributed trainer takes a backend name; follow whatever the
		// library default resolves to, so a default flip shows here too.
		w.trainer = core.NewDistributedTrainer(distRanks, w.net.Backend().Name(), 1, fi, mi, classes, p, w.train)
		start := time.Now()
		world, err := mpi.NewWorldFor("tcp", distRanks, mpi.TCPOptions{})
		if err != nil {
			return err
		}
		b.add("mpi.world_setup_s", time.Since(start).Seconds())
		w.world, w.trainer.World = world, world
		w.mpiReg = obs.NewRegistry()
		for r := 0; r < distRanks; r++ {
			world.Comm(r).Instrument(w.mpiReg)
		}
		w.model, w.net = nil, w.trainer.Networks()[0]
	}

	return nil
}

// loadTraced is streambrain.LoadHiggs taken apart so each data-layer call
// gets a span; test_auc must come out bit-identical to the untraced run's.
func (w *trainWorkload) loadTraced(b *bench, events int) error {
	var ds *data.Dataset
	var err error
	b.add("higgs.generate_s", b.tr.timed("higgs.Load", b.phase, func() {
		ds, err = higgs.Load("", 0, events, b.seed)
	}).Seconds())
	if err != nil {
		return err
	}
	var trainDS, testDS *data.Dataset
	b.add("data.balance_split_s", b.tr.timed("data.Balanced+Split", b.phase, func() {
		rng := rand.New(rand.NewSource(b.seed + 7))
		trainDS, testDS = ds.Balanced(events/4, rng).Split(0.75, rng)
	}).Seconds())
	var enc *data.Encoder
	b.add("data.encoder_fit_s", b.tr.timed("data.FitEncoder", b.phase, func() {
		enc = data.FitEncoder(trainDS, trainBins)
	}).Seconds())
	b.add("data.transform_s", b.tr.timed("data.Encoder.Transform", b.phase, func() {
		w.train, w.test = enc.Transform(trainDS), enc.Transform(testDS)
	}).Seconds())
	return nil
}

func (w *trainWorkload) measure(b *bench) error {
	parent := b.tr.begin("fit", b.phase)
	p := w.cfg.Params
	var fit, calibrate time.Duration
	switch {
	case w.dist:
		// Two calls so the phases can be timed from outside; that costs one
		// extra one-float allreduce (the batch-count agreement) in both the
		// traced and the untraced run.
		var err error
		w.unsup = b.tr.timed("core.DistributedTrainer.Train(unsup)", parent, func() {
			_, err = w.trainer.Train(p.UnsupervisedEpochs, 0)
		})
		if err != nil {
			return err
		}
		w.sup = b.tr.timed("core.DistributedTrainer.Train(sup)", parent, func() {
			_, err = w.trainer.Train(0, p.SupervisedEpochs)
		})
		if err != nil {
			return err
		}
		fit = w.unsup + w.sup
		if err := w.readMPI(b); err != nil {
			return err
		}
	case b.tr == nil:
		start := time.Now()
		w.model.Fit(w.train)
		fit = time.Since(start)
	default:
		w.epochDensity = []float64{maskDensity(w.net.Hidden)}
		last := time.Now()
		var epochs []time.Duration
		id := b.tr.begin("streambrain.Model.FitUnsupervised", parent)
		start := last
		w.model.FitUnsupervised(w.train, p.UnsupervisedEpochs, func(e int, l *core.HiddenLayer) {
			now := time.Now()
			b.tr.record(fmt.Sprintf("epoch %d", e), id, last, now)
			epochs = append(epochs, now.Sub(last))
			w.epochDensity = append(w.epochDensity, maskDensity(l))
			last = time.Now()
		})
		w.unsup = time.Since(start)
		b.tr.finish(id)
		w.sup = b.tr.timed("streambrain.Model.FitSupervised", parent, func() {
			w.model.FitSupervised(w.train, p.SupervisedEpochs)
		})
		calibrate = b.tr.timed("core.Network.CalibrateThreshold", parent, func() {
			w.net.CalibrateThreshold(w.train)
		})
		fit = w.unsup + w.sup + calibrate
		b.add("core.unsup_epoch_first_s", epochs[0].Seconds())
		b.add("core.unsup_epoch_last_s", epochs[len(epochs)-1].Seconds())
	}
	b.tr.finish(parent)
	b.add("core.unsup_s", w.unsup.Seconds())
	b.add("core.sup_s", w.sup.Seconds())
	b.add("core.calibrate_s", calibrate.Seconds())
	epochs := p.UnsupervisedEpochs + p.SupervisedEpochs
	b.add("train_events_per_s", float64(w.train.Len()*epochs)/fit.Seconds())
	if w.dist {
		b.add("mpi.comm_share", w.allreduceSecs/fit.Seconds())
	}

	var acc, auc float64
	eval := b.tr.timed("core.Network.Evaluate", b.phase, func() { acc, auc = w.net.Evaluate(w.test) })
	b.add("core.eval_s", eval.Seconds())
	b.add("pipeline_wall_s", (b.lastSetup + fit + eval).Seconds())
	b.add("test_auc", auc)
	b.add("test_accuracy", acc)
	b.add("core.hidden.mask_density", maskDensity(w.net.Hidden))
	b.check(auc >= aucFloor, "test AUC %.4f below the floor %.2f", auc, aucFloor)
	w.checkInvariants(b)

	// Reads of the model just trained: the read-only forward at training
	// geometry. A call lasts over 100 ms, long enough to average over the
	// machine's bursts, which a 2 ms frame would land inside or outside of.
	reads := b.tr.begin("predict", b.phase)
	var lat []time.Duration
	for i := 0; i < predictCalls; i++ {
		start := time.Now()
		pred, score := w.net.Predict(w.test)
		lat = append(lat, time.Since(start))
		b.count(int64(w.test.Len()), badPredictions(pred, score))
	}
	b.tr.finish(reads)
	p50 := quantile(durationsMs(lat), 0.50)
	b.add("predict_events_per_s", float64(w.test.Len())/p50*1000)
	b.add("predict_p50_ms", p50)
	b.add("predict_p99_ms", quantile(durationsMs(lat), 0.99))
	return nil
}

// readMPI takes rank 0's counters from the registry the communicators
// record into.
func (w *trainWorkload) readMPI(b *bench) error {
	expo, err := scrape(w.mpiReg)
	if err != nil {
		return err
	}
	rank0 := map[string]string{"rank": "0"}
	calls, _ := expo.Value(mpiMetricCalls, rank0)
	secs, _ := expo.Value(mpiMetricSum, rank0)
	sent, _ := expo.Value(mpiMetricSent, rank0)
	gap, _ := expo.Value(mpiMetricGap, rank0)
	w.allreduceSecs = secs
	b.add("mpi.allreduce_calls", calls)
	b.add("mpi.allreduce_s", secs)
	b.add("mpi.sent_bytes", sent)
	b.add("mpi.straggler_gap_s", gap)
	b.check(calls > 0, "no allreduce was recorded on a distributed run")
	return nil
}

// checkInvariants samples a forward pass of the trained layer: activity sums
// to one within every hypercolumn and no weight is NaN or infinite.
func (w *trainWorkload) checkInvariants(b *bench) {
	l := w.net.Hidden
	rows := min(16, w.test.Len())
	act := tensor.NewMatrix(rows, l.Units())
	l.Forward(w.test.Idx[:rows], act)
	tol := 1e-9
	if l.Precision32() {
		tol = 1e-5
	}
	for r := 0; r < rows; r++ {
		row := act.Row(r)
		for h := 0; h < l.H; h++ {
			sum := 0.0
			for _, a := range row[h*l.M : (h+1)*l.M] {
				sum += a
			}
			b.check(math.Abs(sum-1) <= tol, "hypercolumn %d of sample %d sums to %v", h, r, sum)
		}
	}
	bad := 0
	for _, v := range l.W.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad++
		}
	}
	b.check(bad == 0, "%d non-finite hidden weights", bad)
}

// badPredictions counts answers that cannot be right whatever the model: a
// class outside {0,1} or a score that is not a probability.
func badPredictions(pred []int, score []float64) int64 {
	var bad int64
	for i, s := range score {
		if math.IsNaN(s) || s < 0 || s > 1 || pred[i] < 0 || pred[i] > 1 {
			bad++
		}
	}
	return bad
}

// maskDensity is the share of (input hypercolumn, HCU) blocks that are active.
func maskDensity(l *core.HiddenLayer) float64 {
	active := 0
	for h := 0; h < l.H; h++ {
		for _, on := range l.ReceptiveField(h) {
			if on {
				active++
			}
		}
	}
	return float64(active) / float64(l.Fi*l.H)
}

func (w *trainWorkload) probes(b *bench) error {
	steps := w.probeLayer(b)
	w.closure(b, steps)
	if w.dist {
		return probeAllreduce(b)
	}
	if !w.sparse {
		if err := probeBackends(b, w.train); err != nil {
			return err
		}
		probeMachine(b)
	}
	return nil
}

// layerParts are the medians probeLayer measured, in seconds.
type layerParts struct {
	step, noise, forward, structural, readoutTrain float64
	// stepFull is the step of an untrained layer of the same geometry with
	// every block active: the second point of the line train-sparse's
	// closure reads the step at an epoch's mask density from.
	stepFull float64
}

// probeLayer times the parts of a training step on the trained network. The
// parts are called interleaved, in the order training calls them, because W
// and Cij (6.7 MB each at 1x3000) evict each other in production; timing
// each kernel in its own tight loop reports about half the real step.
func (w *trainWorkload) probeLayer(b *bench) layerParts {
	parent := b.tr.begin("layer probes", b.phase)
	defer b.tr.finish(parent)
	l, out, p := w.net.Hidden, w.net.Out, w.cfg.Params
	batch := min(p.BatchSize, w.train.Len())
	act := tensor.NewMatrix(batch, l.Units())
	probs := tensor.NewMatrix(batch, out.Classes())
	iters := b.scaled(60, 6)
	var step, noisy, fwd, structural, rtrain, rscores []float64
	var allocs uint64
	k := int(math.Round(maskDensity(l) * float64(l.Fi))) // active inputs per HCU, the same for every HCU
	timed := func(into *[]float64, name string, fn func()) {
		*into = append(*into, b.tr.timed(name, parent, fn).Seconds())
	}
	for i := 0; i < iters; i++ {
		lo := (i * batch) % (w.train.Len() - batch + 1)
		idx, labels := w.train.Idx[lo:lo+batch], w.train.Y[lo:lo+batch]
		l.SetNoise(0)
		before := mallocs()
		timed(&step, "core.HiddenLayer.TrainBatch", func() { l.TrainBatch(idx) })
		allocs += mallocs() - before
		l.SetNoise(p.SupportNoise)
		timed(&noisy, "core.HiddenLayer.TrainBatch(noise)", func() { l.TrainBatch(idx) })
		l.SetNoise(0)
		timed(&fwd, "core.HiddenLayer.Forward", func() { l.Forward(idx, act) })
		timed(&rtrain, "core.Readout.TrainBatch", func() { out.TrainBatch(act, labels) })
		timed(&rscores, "core.Readout.Scores", func() { out.Scores(act, probs) })
		if i%(iters/6) == 0 {
			if p.TargetSparsity > 0 {
				timed(&structural, "core.HiddenLayer.PruneRegrow", func() { l.PruneRegrow(k, p.SwapsPerEpoch) })
			} else {
				timed(&structural, "core.HiddenLayer.StructuralUpdate", func() { l.StructuralUpdate() })
			}
		}
	}
	parts := layerParts{
		step: median(step), noise: median(noisy) - median(step), forward: median(fwd),
		structural: median(structural), readoutTrain: median(rtrain),
	}
	b.add("core.hidden.step_ms", parts.step*1000)
	b.add("core.hidden.noise_ms", parts.noise*1000)
	b.add("core.hidden.forward_ms", parts.forward*1000)
	b.add("core.hidden.update_ms", (parts.step-parts.forward)*1000)
	b.add("core.hidden.structural_ms", parts.structural*1000)
	b.add("core.readout.train_ms", parts.readoutTrain*1000)
	b.add("core.readout.scores_ms", median(rscores)*1000)
	b.add("core.hidden.step_allocs", float64(allocs)/float64(iters))
	flops, bytes := stepCost(l, batch, p)
	b.add("core.hidden.step_flops_computed", flops)
	b.add("core.hidden.step_bytes_computed", bytes)
	if p.SparseCompute {
		fresh, err := streambrain.NewModel(w.cfg, l.Fi, l.Mi, out.Classes())
		if err != nil {
			panic(err) // the same configuration built the trained model
		}
		full := fresh.Network().Hidden
		full.InitTracesFromData(w.train.Idx)
		var steps []float64
		for i := 0; i < iters/2; i++ {
			lo := (i * batch) % (w.train.Len() - batch + 1)
			timed(&steps, "core.HiddenLayer.TrainBatch(full mask)", func() { full.TrainBatch(w.train.Idx[lo : lo+batch]) })
		}
		parts.stepFull = median(steps[1:])
	}
	return parts
}

// stepCost computes, from geometry alone, the floating-point operations and
// the bytes one training step must move: the roofline reading of step_ms.
// Nothing here is measured. Only block-sparse compute skips silent blocks;
// dense-masked compute touches every block whatever the mask says.
func stepCost(l *core.HiddenLayer, batch int, p core.Params) (flops, bytes float64) {
	in, units, rows := float64(l.Inputs()), float64(l.Units()), float64(batch)
	share := 1.0
	if p.SparseCompute {
		share = maskDensity(l)
	}
	width := 8.0 // bytes per element on the forward path
	if p.Precision.Is32() {
		width = 4
	}
	// The support adds one weight row per active input and unit; bias and
	// softmax cost about four operations per activation; the joint trace
	// decays once and takes the batch outer product; re-deriving the log-odds
	// weights is a divide, a multiply and a log per element.
	gather := rows * float64(l.Fi) * units * share
	flops = gather + 4*rows*units + (in*units*share + 2*gather) + 3*in*units*share
	// Weight rows read by the gather, activations written and read back,
	// joint traces read and written, weights written; the float32 path also
	// recasts the float64 weights into its float32 image.
	bytes = gather*width + 2*rows*units*8 + 2*in*units*share*8 + in*units*share*8
	if p.Precision.Is32() {
		bytes += in * units * (8 + 4)
	}
	return flops, bytes
}

// closure checks that the probed parts account for the phases they belong
// to: steps x (step + annealed noise) + structural rounds against the
// unsupervised phase, steps x (forward + readout update) against the
// supervised one. On train-sparse the mask thins from epoch to epoch, so the
// step at an epoch's density is read off the line through the two densities
// probed: the trained layer's and a full mask's.
func (w *trainWorkload) closure(b *bench, parts layerParts) {
	p := w.cfg.Params
	steps := float64((w.train.Len() + p.BatchSize - 1) / p.BatchSize)
	if w.dist {
		steps = float64(max(1, w.train.Len()/distRanks/p.BatchSize))
	}
	final := maskDensity(w.net.Hidden)
	attributed := float64(p.UnsupervisedEpochs)*parts.structural + w.allreduceSecs
	for e := 0; e < p.UnsupervisedEpochs; e++ {
		anneal := 0.0
		if p.UnsupervisedEpochs > 1 {
			anneal = 1 - float64(e)/float64(p.UnsupervisedEpochs-1)
		}
		step := parts.step
		if p.SparseCompute && e < len(w.epochDensity) && final < 1 {
			step += (parts.stepFull - parts.step) * (w.epochDensity[e] - final) / (1 - final)
		}
		attributed += steps * (step + parts.noise*anneal)
	}
	unsupGap := w.unsup.Seconds() - attributed
	supGap := w.sup.Seconds() - float64(p.SupervisedEpochs)*steps*(parts.forward+parts.readoutTrain)
	b.add("core.unsup_unattributed_s", unsupGap)
	b.add("core.sup_unattributed_s", supGap)
	b.validity(math.Abs(unsupGap) <= 0.25*w.unsup.Seconds(),
		"unsupervised phase %.2fs leaves %.2fs unattributed, limit 25%%", w.unsup.Seconds(), unsupGap)
	b.validity(math.Abs(supGap) <= 0.25*w.sup.Seconds(),
		"supervised phase %.2fs leaves %.2fs unattributed, limit 25%%", w.sup.Seconds(), supGap)
}
