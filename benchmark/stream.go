package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"streambrain"
	"streambrain/internal/core"
	"streambrain/internal/data"
	"streambrain/internal/higgs"
	"streambrain/internal/serve"
	"streambrain/internal/stream"
	"streambrain/internal/tensor"
)

// Sizes of stream-ingest at refSeconds.
const (
	streamDataset      = 20000  // generated events the source loops over
	streamEvents       = 150000 // events replayed, warm-up included
	streamUnits        = 1000   // 1x1000 MCUs
	streamBatch        = 32
	streamWarmup       = 2048
	streamWindow       = 2048
	streamPublishEvery = 8192
	readerBatch        = 16
	readerThink        = 2 * time.Millisecond
)

// loopSource replays a generated dataset, unpaced: the pipeline pulls, so its
// pull rate is the sustainable rate. It holds the pipeline at the first pull
// after warm-up until the measured region opens, which is what separates
// set-up (warm-up and bootstrap) from steady state.
type loopSource struct {
	ds          *data.Dataset
	sent, limit int
	first       time.Time     // the first pull
	marks       []time.Time   // the pull that opens each publish interval of the steady state
	warmed      chan struct{} // closed at the first pull after warm-up
	release     chan struct{} // closed to open the steady state
	cancel      <-chan struct{}
}

func (s *loopSource) Next() (stream.Event, bool) {
	switch s.sent {
	case 0:
		s.first = time.Now()
	case streamWarmup:
		close(s.warmed)
		select {
		case <-s.release:
		case <-s.cancel:
			return stream.Event{}, false
		}
	}
	if s.sent >= s.limit {
		return stream.Event{}, false
	}
	if (s.sent-streamWarmup)%streamPublishEvery == 0 && s.sent >= streamWarmup {
		s.marks = append(s.marks, time.Now())
	}
	row := s.sent % s.ds.Len()
	s.sent++
	return stream.Event{Features: s.ds.X.Row(row), Label: s.ds.Y[row]}, true
}

// timingPublisher wraps the registry publisher to time what ingest waits for
// on every publish: bundle serialise, registry decode, swap.
type timingPublisher struct {
	inner stream.Publisher
	b     *bench
	spent []time.Duration
}

func (p *timingPublisher) Publish(net *core.Network, enc *data.Encoder, seq int) error {
	var err error
	p.spent = append(p.spent, p.b.tr.timed("stream.Publisher.Publish", p.b.phase, func() {
		err = p.inner.Publish(net, enc, seq)
	}))
	return err
}

type streamWorkload struct {
	ds     *data.Dataset
	src    *loopSource
	pipe   *stream.Pipeline
	reg    *serve.Registry
	pub    *timingPublisher
	cancel context.CancelFunc
	done   chan struct{} // closed when Run has returned
	runErr error         // Run's result, valid once done is closed
	params core.Params
}

func (w *streamWorkload) close() {
	if w.cancel != nil {
		w.cancel()
		<-w.done
		w.cancel = nil
	}
}

func (w *streamWorkload) setup(b *bench) error {
	w.ds = higgs.Generate(streamDataset, 0.5, b.seed)
	p := streambrain.DefaultParams()
	p.MCUs, p.Seed = streamUnits, b.seed
	w.params = p
	w.reg = serve.NewRegistry(1, serve.NamedBackendFactory("parallel", 0))
	var pub stream.Publisher = &stream.RegistryPublisher{Reg: w.reg}
	if b.tr != nil {
		w.pub = &timingPublisher{inner: pub, b: b}
		pub = w.pub
	}
	pipe, err := stream.New(stream.Config{
		Params: p, BatchSize: streamBatch, Warmup: streamWarmup,
		Window: streamWindow, PublishEvery: streamPublishEvery,
	}, pub)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w.pipe, w.cancel = pipe, cancel
	w.src = &loopSource{
		ds: w.ds, limit: max(b.scaled(streamEvents, 0), streamWarmup+4*streamBatch),
		warmed: make(chan struct{}), release: make(chan struct{}), cancel: ctx.Done(),
	}
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		w.runErr = pipe.Run(ctx, w.src)
	}()
	select {
	case <-w.src.warmed:
	case <-w.done:
		return fmt.Errorf("pipeline ended during warm-up: %v", w.runErr)
	}
	b.add("stream.bootstrap_s", time.Since(w.src.first).Seconds())
	if !pipe.Stats().Warmed {
		return fmt.Errorf("pipeline pulled past warm-up without a bootstrapped model")
	}
	return nil
}

func (w *streamWorkload) measure(b *bench) error {
	// The reader scores batches on the serving replica while ingest trains
	// and hot-swaps it; offsets come from the seed.
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	var lat []time.Duration
	var reads, badReads int64
	var regressed atomic.Bool
	go func() {
		defer close(readerDone)
		rng := rand.New(rand.NewSource(b.seed + 11))
		events := make([][]float64, readerBatch)
		var lastGen uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			at := rng.Intn(w.ds.Len() - readerBatch)
			for i := range events {
				events[i] = w.ds.X.Row(at + i)
			}
			id := b.tr.beginLane("serve.Bundle.Predict", b.phase, 1)
			start := time.Now()
			pred, score, err := w.reg.Replica(0).Predict(events)
			lat = append(lat, time.Since(start))
			b.tr.finish(id)
			reads += readerBatch
			if err != nil {
				badReads += readerBatch
			} else {
				badReads += badPredictions(pred, score)
			}
			if gen := w.reg.Info().Generation; gen < lastGen {
				regressed.Store(true)
			} else {
				lastGen = gen
			}
			time.Sleep(readerThink)
		}
	}()

	start := time.Now()
	close(w.src.release)
	<-w.done
	steady := time.Since(start)
	close(stop)
	<-readerDone
	if w.runErr != nil {
		return w.runErr
	}

	st := w.pipe.Stats()
	steadyEvents := w.src.limit - streamWarmup
	b.count(int64(w.src.limit), int64(w.src.limit)-st.Events)
	b.count(reads, badReads)
	b.check(!regressed.Load(), "the reader saw the bundle generation go backwards")
	// One publish after bootstrap, one per PublishEvery steady events, one at
	// the end of the stream for whatever was trained since.
	wantPublishes := 1 + steadyEvents/streamPublishEvery
	if steadyEvents%streamPublishEvery > 0 {
		wantPublishes++
	}
	b.check(st.Publishes == int64(wantPublishes), "%d publishes, %d events imply %d", st.Publishes, steadyEvents, wantPublishes)
	b.check(st.WindowAUC >= aucFloor, "window AUC %.4f below the floor %.2f", st.WindowAUC, aucFloor)

	var busy time.Duration
	for _, d := range lat {
		busy += d
	}
	b.add("pipeline_wall_s", (b.lastSetup + steady).Seconds())
	// The pipeline pulls the next event only when a step, its publish
	// included, has returned, so the time between the pulls that open two
	// publish intervals holds exactly one interval's training, structural
	// rounds and publish. The rate is the median over intervals; a stream too
	// short for two marks reports the whole steady state.
	if len(w.src.marks) < 2 {
		b.add("train_events_per_s", float64(steadyEvents)/steady.Seconds())
	}
	for i := 1; i < len(w.src.marks); i++ {
		b.add("train_events_per_s", streamPublishEvery/w.src.marks[i].Sub(w.src.marks[i-1]).Seconds())
	}
	b.add("predict_events_per_s", float64(reads)/busy.Seconds())
	b.add("predict_p50_ms", quantile(durationsMs(lat), 0.50))
	b.add("predict_p99_ms", quantile(durationsMs(lat), 0.99))
	b.add("test_auc", st.WindowAUC)
	b.add("test_accuracy", st.WindowAccuracy)
	b.add("stream.publishes", float64(st.Publishes))
	b.add("stream.structural_rounds", float64(st.StructuralRounds))
	b.add("stream.step_ms", ms(steady)/float64(st.Batches))
	if w.pub != nil {
		b.add("stream.publish_ms", median(durationsMs(w.pub.spent)))
	}
	return nil
}

// probes times the layers an ingest step is made of, on a model of the
// pipeline's geometry trained the way bootstrap trains it, at the pipeline's
// 32-row micro-batch.
func (w *streamWorkload) probes(b *bench) error {
	parent := b.tr.begin("stream probes", b.phase)
	defer b.tr.finish(parent)

	// The source's own cost, against the time the pipeline takes per event.
	src := &loopSource{ds: w.ds, limit: 1 << 30, warmed: make(chan struct{}), release: make(chan struct{})}
	close(src.release)
	const pulls = 200000
	start := time.Now()
	for i := 0; i < pulls; i++ {
		src.Next()
	}
	perEvent := time.Since(start).Seconds() / pulls
	b.add("bench.source_event_us", perEvent*1e6)
	b.validity(perEvent*5 <= 1/b.value("train_events_per_s"),
		"the source needs %.2f us per event, more than a fifth of the pipeline's %.2f us", perEvent*1e6, 1e6/b.value("train_events_per_s"))

	rows := make([][]float64, streamWarmup)
	for i := range rows {
		rows[i] = w.ds.X.Row(i)
	}
	enc := data.FitEncoderRows(rows, trainBins)
	warm, err := enc.TransformBatch(rows, w.ds.Y[:streamWarmup], w.ds.Classes)
	if err != nil {
		return err
	}
	model, err := streambrain.NewModel(streambrain.Config{Params: w.params}, warm.Hypercolumns, warm.UnitsPerHC, warm.Classes)
	if err != nil {
		return err
	}
	model.Fit(warm)
	net := model.Network()

	iters := b.scaled(150, 8)
	var fit, predict, structural, forward []float64
	act := tensor.NewMatrix(core.DefaultParams().BatchSize, net.Hidden.Units())
	for i := 0; i < iters; i++ {
		lo := (i * streamBatch) % (warm.Len() - streamBatch)
		micro := &data.Encoded{Idx: warm.Idx[lo : lo+streamBatch], Y: warm.Y[lo : lo+streamBatch],
			Classes: warm.Classes, Hypercolumns: warm.Hypercolumns, UnitsPerHC: warm.UnitsPerHC}
		predict = append(predict, ms(b.tr.timed("core.Network.Predict", parent, func() { net.Predict(micro) })))
		fit = append(fit, ms(b.tr.timed("core.Network.PartialFit", parent, func() { net.PartialFit(micro.Idx, micro.Y) })))
		if i%8 == 0 {
			structural = append(structural, ms(b.tr.timed("core.HiddenLayer.StructuralUpdate", parent, func() { net.Hidden.StructuralUpdate() })))
			forward = append(forward, ms(b.tr.timed("core.HiddenLayer.Forward", parent, func() { net.Hidden.Forward(warm.Idx[:act.Rows], act) })))
		}
	}
	b.add("stream.predict_ms", median(predict))
	b.add("stream.partial_fit_ms", median(fit))
	b.add("core.hidden.structural_ms", median(structural))
	b.add("core.hidden.forward_ms", median(forward))
	probeTransformRow(b, parent, enc, rows)
	return probeBundle(b, parent, model, enc)
}

// probeTransformRow times the per-event encoder call the serving and
// streaming paths make.
func probeTransformRow(b *bench, parent int, enc *data.Encoder, rows [][]float64) {
	dst := make([]int32, 0, len(rows[0]))
	d := b.tr.timed("data.Encoder.TransformRow", parent, func() {
		for _, row := range rows {
			dst, _ = enc.TransformRow(dst[:0], row) // rows came from the generator; the encoder was fitted on them
		}
	})
	b.add("data.transform_row_us", d.Seconds()*1e6/float64(len(rows)))
}

// probeBundle times what a publish or a reload is made of: serialise the
// model, decode it into a registry.
func probeBundle(b *bench, parent int, model *streambrain.Model, enc *data.Encoder) error {
	var save, load []float64
	var raw []byte
	reg := serve.NewRegistry(1, serve.NamedBackendFactory("parallel", 0))
	for i := 0; i < b.scaled(8, 3); i++ {
		var buf bytes.Buffer
		var err error
		save = append(save, ms(b.tr.timed("streambrain.SaveModel", parent, func() { err = streambrain.SaveModel(&buf, model, enc) })))
		if err != nil {
			return err
		}
		raw = buf.Bytes()
		load = append(load, ms(b.tr.timed("serve.Registry.LoadBytes", parent, func() { err = reg.LoadBytes(raw, "probe", time.Now()) })))
		if err != nil {
			return err
		}
	}
	b.add("serve.bundle.save_ms", median(save))
	b.add("serve.bundle.load_ms", median(load))
	b.add("serve.bundle.bytes", float64(len(raw)))
	return nil
}
