package stream

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"streambrain/internal/backend"
	"streambrain/internal/core"
	"streambrain/internal/data"
	"streambrain/internal/obs"
	"streambrain/internal/sgd"
)

// Config tunes the continual-learning pipeline. The zero value of every
// field selects a sensible default, so Config{} is runnable.
type Config struct {
	// Backend names the compute backend ("" = "fused"); Workers sets its
	// worker-team size (0 = GOMAXPROCS).
	Backend string
	Workers int
	// Params holds the BCPNN hyperparameters (zero value = DefaultParams).
	Params core.Params
	// HybridSGD replaces the BCPNN classification layer with the SGD
	// softmax readout — the paper's best-performing configuration. The SGD
	// step is itself a per-batch update, so it streams as naturally as the
	// trace rule. SGD configures it (zero value = sgd.DefaultConfig).
	HybridSGD bool
	SGD       sgd.Config
	// Classes is the label arity (default 2, the Higgs signal/background
	// problem).
	Classes int
	// Bins is the quantile-encoding bin count (default 10, as in §V).
	Bins int
	// Warmup is how many events are buffered to fit the first encoder and
	// warm-start the model before streaming training begins (default 2048).
	Warmup int
	// BatchSize is the training micro-batch (default Params.BatchSize).
	BatchSize int
	// Window is the sliding prequential-metric window in events
	// (default 2048).
	Window int
	// DriftDrop is the windowed-accuracy regression (absolute) that flags
	// drift (default 0.10); DriftMinObs is how many full-window batches the
	// detector observes before arming (default 8).
	DriftDrop   float64
	DriftMinObs int
	// PublishEvery is the number of events between bundle snapshots
	// (default 8192; negative disables periodic publishing — the post-warmup
	// and end-of-stream snapshots still happen).
	PublishEvery int
	// RefitEvery is the number of events between encoder refits from the
	// reservoir sample (0 = refit only on drift).
	RefitEvery int
	// StructuralEvery is the number of events between structural-plasticity
	// rounds — the stream's stand-in for "once per epoch" (default Warmup).
	StructuralEvery int
	// ReservoirSize is the uniform-sample capacity backing encoder refits
	// (default 4096).
	ReservoirSize int
	// Obs is the telemetry registry the pipeline records into (ingest rate,
	// drift events, refit duration — DESIGN.md §11). Nil disables metric
	// recording at the cost of a nil check per call.
	Obs *obs.Registry
	// Tracer samples ingest-step lifecycles (encode → predict → partial_fit
	// → window_update → drift_check → publish spans). Nil disables tracing.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.Backend == "" {
		c.Backend = "fused"
	}
	if c.Params == (core.Params{}) {
		c.Params = core.DefaultParams()
	}
	if c.Classes == 0 {
		c.Classes = 2
	}
	if c.Bins == 0 {
		c.Bins = 10
	}
	if c.Warmup <= 0 {
		c.Warmup = 2048
	}
	if c.BatchSize <= 0 {
		c.BatchSize = c.Params.BatchSize
	}
	if c.Window <= 0 {
		c.Window = 2048
	}
	if c.DriftDrop <= 0 {
		c.DriftDrop = 0.10
	}
	if c.DriftMinObs <= 0 {
		c.DriftMinObs = 8
	}
	if c.PublishEvery == 0 {
		c.PublishEvery = 8192
	}
	if c.StructuralEvery <= 0 {
		c.StructuralEvery = c.Warmup
	}
	if c.ReservoirSize <= 0 {
		c.ReservoirSize = 4096
	}
	return c
}

// Stats is a point-in-time snapshot of pipeline progress; safe to read from
// other goroutines while Run ingests.
type Stats struct {
	// Events counts ingested events (warmup included); Batches counts
	// micro-batch training steps after warmup.
	Events  int64
	Batches int64
	// Publishes, Refits, Drifts and StructuralRounds count the respective
	// lifecycle actions.
	Publishes        int64
	Refits           int64
	Drifts           int64
	StructuralRounds int64
	// Warmed reports that the first model exists (warmup buffer trained).
	Warmed bool
	// WindowReady reports that the sliding window has filled at least once
	// since warmup, i.e. WindowAccuracy and WindowAUC are measured on a full
	// window. Until then both stay 0 — consumers (dashboards, drift alarms
	// built on Stats) must treat them as "not yet measured", not as a
	// regression to zero. The pipeline's own DriftDetector is gated the same
	// way and never sees pre-warmup values.
	WindowReady bool
	// WindowLen, WindowAccuracy and WindowAUC describe the sliding
	// prequential window; Threshold is the current calibrated decision cut.
	WindowLen      int
	WindowAccuracy float64
	WindowAUC      float64
	Threshold      float64
}

// Pipeline is the online continual-learning loop. Build one with New, feed
// it with Run (single goroutine), observe it with Stats (any goroutine).
type Pipeline struct {
	cfg    Config
	pub    Publisher
	be     backend.Backend
	m      *obsMetrics
	tracer *obs.Tracer

	// net and enc are owned by the Run goroutine; publishers receive
	// serialized snapshots, never live pointers across goroutines.
	net *core.Network
	enc *data.Encoder
	res *data.Reservoir

	mu    sync.Mutex // guards win, drift, stats, since* counters
	win   *Window
	drift *DriftDetector
	stats Stats

	sincePublish    int
	sinceRefit      int
	sinceStructural int
}

// New validates the configuration and builds an idle pipeline. pub may be
// nil (train-only; snapshots are skipped).
func New(cfg Config, pub Publisher) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Classes < 2 {
		return nil, fmt.Errorf("stream: %d classes, need >= 2", cfg.Classes)
	}
	if cfg.Bins < 2 {
		return nil, fmt.Errorf("stream: %d bins, need >= 2", cfg.Bins)
	}
	be, err := backend.New(cfg.Backend, cfg.Workers)
	if err != nil {
		return nil, err
	}
	if cfg.Params.Precision.Is32() {
		// Fail at construction, not deep into ingest when bootstrap builds
		// the network: the reduced-precision path needs a float32 kernel
		// set on the chosen backend.
		if _, err := backend.New32(cfg.Backend, cfg.Workers); err != nil {
			return nil, fmt.Errorf("stream: Precision %q: %w", cfg.Params.Precision, err)
		}
	}
	return &Pipeline{
		cfg:    cfg,
		pub:    pub,
		be:     be,
		m:      newObsMetrics(cfg.Obs),
		tracer: cfg.Tracer,
		res:    data.NewReservoir(cfg.ReservoirSize, cfg.Params.Seed+101),
		win:    NewWindow(cfg.Window),
		drift:  NewDriftDetector(cfg.DriftDrop, cfg.DriftMinObs),
		stats:  Stats{Threshold: 0.5},
	}, nil
}

// Stats returns a snapshot of pipeline progress. Window metrics are
// published only once the window holds data (and flagged measured-on-a-full-
// window via WindowReady); before that they are 0 with WindowReady false,
// never NaN, so snapshots stay JSON-safe.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.WindowLen = p.win.Len()
	s.WindowReady = s.Warmed && p.win.Full()
	if p.win.Len() > 0 {
		s.WindowAccuracy = p.win.Accuracy()
		s.WindowAUC = p.win.AUC()
	}
	return s
}

// Run ingests the source until it is exhausted or ctx is canceled: warmup
// buffering and bootstrap training first, then micro-batched prequential
// ingest (predict → window metrics → train) with periodic encoder refits,
// structural-plasticity rounds, and bundle publishes. Run blocks; it must
// be called once, from one goroutine.
func (p *Pipeline) Run(ctx context.Context, src Source) error {
	// Phase 1: buffer the warmup sample.
	rows := make([][]float64, 0, p.cfg.Warmup)
	labels := make([]int, 0, p.cfg.Warmup)
	for len(rows) < p.cfg.Warmup {
		if err := ctx.Err(); err != nil {
			return err
		}
		ev, ok := src.Next()
		if !ok {
			break
		}
		rows = append(rows, append([]float64(nil), ev.Features...))
		labels = append(labels, ev.Label)
		p.res.Add(ev.Features)
	}
	if len(rows) == 0 {
		return fmt.Errorf("stream: source ended before any event arrived")
	}
	if err := p.bootstrap(rows, labels); err != nil {
		return err
	}

	// Phase 2: steady-state micro-batched ingest. Batch rows are reused
	// buffers — events are copied in, so sources may recycle their slices.
	batchRows := make([][]float64, p.cfg.BatchSize)
	batchLabels := make([]int, 0, p.cfg.BatchSize)
	n := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		ev, ok := src.Next()
		if !ok {
			break
		}
		batchRows[n] = append(batchRows[n][:0], ev.Features...)
		batchLabels = append(batchLabels, ev.Label)
		n++
		p.res.Add(ev.Features)
		if n == p.cfg.BatchSize {
			if err := p.step(batchRows[:n], batchLabels); err != nil {
				return err
			}
			n = 0
			batchLabels = batchLabels[:0]
		}
	}
	if n > 0 {
		if err := p.step(batchRows[:n], batchLabels); err != nil {
			return err
		}
	}
	// End-of-stream snapshot, so nothing trained since the last publish is
	// lost.
	p.mu.Lock()
	pending := p.sincePublish > 0
	p.mu.Unlock()
	if pending {
		return p.publish()
	}
	return nil
}

// bootstrap fits the encoder on the warmup buffer, warm-starts the network
// with the standard two-phase batch trainer (reusing the batch kernels and
// threshold calibration wholesale), and publishes the first snapshot.
func (p *Pipeline) bootstrap(rows [][]float64, labels []int) error {
	enc := data.FitEncoderRows(rows, p.cfg.Bins)
	encoded, err := enc.TransformBatch(rows, labels, p.cfg.Classes)
	if err != nil {
		return fmt.Errorf("stream: warmup: %w", err)
	}
	net := core.NewNetwork(p.be, enc.Features(), p.cfg.Bins, p.cfg.Classes, p.cfg.Params)
	if p.cfg.HybridSGD {
		scfg := p.cfg.SGD
		if scfg == (sgd.Config{}) {
			scfg = sgd.DefaultConfig()
		}
		rng := rand.New(rand.NewSource(p.cfg.Params.Seed + 1))
		net.SetReadout(sgd.NewSoftmax(net.Hidden.Units(), p.cfg.Classes, scfg, rng))
	}
	net.Train(encoded)
	p.net, p.enc = net, enc
	p.mu.Lock()
	p.stats.Warmed = true
	p.stats.Events += int64(len(rows))
	p.stats.Threshold = net.Threshold()
	p.mu.Unlock()
	p.m.events.Add(uint64(len(rows)))
	p.m.threshold.Set(net.Threshold())
	return p.publish()
}

// step runs one prequential micro-batch: predict with the current model,
// fold the results into the sliding window, then train on the batch, and
// finally apply whatever lifecycle actions (drift response, encoder refit,
// structural plasticity, publish) came due.
func (p *Pipeline) step(rows [][]float64, labels []int) error {
	stepStart := time.Now()
	tr := p.tracer.Sample("ingest")
	defer tr.Finish()

	sp := tr.Start("encode")
	encoded, err := p.enc.TransformBatch(rows, labels, p.cfg.Classes)
	sp.End()
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	sp = tr.Start("predict")
	pred, score := p.net.Predict(encoded)
	sp.End()
	sp = tr.Start("partial_fit")
	p.net.PartialFit(encoded.Idx, labels)
	sp.End()

	sp = tr.Start("window_update")
	p.mu.Lock()
	for i := range pred {
		p.win.Add(pred[i], labels[i], score[i])
	}
	p.stats.Events += int64(len(rows))
	p.stats.Batches++
	p.sincePublish += len(rows)
	p.sinceRefit += len(rows)
	p.sinceStructural += len(rows)
	sp.End()
	sp = tr.Start("drift_check")
	drifted := false
	if p.win.Full() {
		drifted = p.drift.Observe(p.win.Accuracy())
	}
	if drifted {
		p.stats.Drifts++
		p.drift.Reset()
	}
	sp.End()
	refit := drifted || (p.cfg.RefitEvery > 0 && p.sinceRefit >= p.cfg.RefitEvery)
	structural := p.sinceStructural >= p.cfg.StructuralEvery
	publish := p.cfg.PublishEvery > 0 && p.sincePublish >= p.cfg.PublishEvery
	// AUC snapshots and sorts the whole window — too expensive to pay per
	// step when nobody is scraping, so the gauges only update on a live
	// registry.
	live := p.m.live()
	var winAcc, winAUC float64
	if live && p.win.Len() > 0 {
		winAcc, winAUC = p.win.Accuracy(), p.win.AUC()
	}
	p.mu.Unlock()

	p.m.events.Add(uint64(len(rows)))
	p.m.batches.Inc()
	if drifted {
		p.m.drifts.Inc()
	}
	if live {
		p.m.windowAcc.Set(winAcc)
		p.m.windowAUC.Set(winAUC)
	}

	// Drift response: re-anchor the encoder on the reservoir (which tracks
	// the shifted input distribution) and recalibrate the decision cut at
	// the next publish; the trace EMA re-adapts on its own.
	if refit {
		refitStart := time.Now()
		sp = tr.Start("refit")
		if err := p.enc.Refit(p.res.Rows()); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		sp.End()
		p.m.refit.Observe(time.Since(refitStart))
		p.mu.Lock()
		p.stats.Refits++
		p.sinceRefit = 0
		p.mu.Unlock()
	}
	if structural {
		sp = tr.Start("structural")
		p.net.Hidden.StructuralUpdate()
		sp.End()
		p.m.structural.Inc()
		p.mu.Lock()
		p.stats.StructuralRounds++
		p.sinceStructural = 0
		p.mu.Unlock()
	}
	if publish {
		sp = tr.Start("publish")
		err := p.publish()
		sp.End()
		p.m.step.Observe(time.Since(stepStart))
		return err
	}
	p.m.step.Observe(time.Since(stepStart))
	return nil
}

// publish recalibrates the binary decision threshold on the sliding window
// and hands the pipeline's publisher a snapshot.
func (p *Pipeline) publish() error {
	p.mu.Lock()
	if p.cfg.Classes == 2 && p.win.Len() > 0 {
		t := p.win.BestThreshold()
		p.net.SetThreshold(t)
		p.stats.Threshold = t
	}
	seq := int(p.stats.Publishes) + 1
	p.mu.Unlock()

	if p.pub != nil {
		if err := p.pub.Publish(p.net, p.enc, seq); err != nil {
			return fmt.Errorf("stream: publish #%d: %w", seq, err)
		}
	}
	p.mu.Lock()
	p.stats.Publishes++
	p.sincePublish = 0
	threshold := p.stats.Threshold
	p.mu.Unlock()
	p.m.publishes.Inc()
	p.m.threshold.Set(threshold)
	return nil
}
