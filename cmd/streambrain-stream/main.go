// Command streambrain-stream runs the online continual-learning pipeline:
// it ingests a stream of raw Higgs events (replayed from a CSV file at a
// configurable rate, or synthesized on the fly), trains the BCPNN
// incrementally in micro-batches, tracks sliding-window accuracy/AUC with a
// drift signal, and periodically publishes fresh model snapshots — into an
// in-process HTTP prediction service (-addr), a bundle file (-save-bundle),
// or both. One process learns and serves concurrently:
//
//	streambrain-stream -events 100000 -rate 5000 -addr :8080
//	curl -s localhost:8080/healthz          # generation advances as it learns
//	curl -s localhost:8080/v1/predict -d '{"events": [[...28 raw features...]]}'
//
// With -csv the real UCI HIGGS file is replayed instead of the synthetic
// generator; -loop replays past one pass for long soak runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"streambrain/internal/core"
	"streambrain/internal/higgs"
	"streambrain/internal/obs"
	"streambrain/internal/serve"
	"streambrain/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("streambrain-stream: ")

	var (
		csvPath = flag.String("csv", "", "replay a UCI HIGGS CSV instead of synthesizing events")
		events  = flag.Int("events", 100000, "synthetic event count (ignored with -csv)")
		loop    = flag.Int("loop", 0, "total events to emit, looping over the input (0 = one pass)")
		rate    = flag.Float64("rate", 0, "ingest pacing in events/s (0 = as fast as possible)")
		seed    = flag.Int64("seed", 1, "synthetic generation seed")

		backendName = flag.String("backend", "fused", "compute backend: naive | parallel | fused | gpusim")
		workers     = flag.Int("workers", 0, "backend worker-team size (0 = all cores)")
		mcus        = flag.Int("mcus", 300, "minicolumn units per HCU")
		hcus        = flag.Int("hcus", 1, "hidden hypercolumn units")
		rf          = flag.Float64("rf", 0.30, "receptive-field fraction")
		bins        = flag.Int("bins", 10, "quantile-encoding bins")

		warmup       = flag.Int("warmup", 2048, "events buffered before the first model is fitted")
		batch        = flag.Int("batch", 128, "training micro-batch size")
		window       = flag.Int("window", 2048, "sliding metric window (events)")
		publishEvery = flag.Int("publish-every", 8192, "events between bundle snapshots (<0 disables periodic publishes)")
		refitEvery   = flag.Int("refit-every", 0, "events between encoder refits (0 = refit only on drift)")
		driftDrop    = flag.Float64("drift-drop", 0.10, "windowed-accuracy drop that signals drift")

		addr       = flag.String("addr", "", "serve predictions over HTTP at this address while training (empty = train-only)")
		replicas   = flag.Int("replicas", 2, "serving model replicas when -addr is set")
		saveBundle = flag.String("save-bundle", "", "also rewrite this bundle file on every snapshot")
		statsEvery = flag.Duration("stats-every", 5*time.Second, "progress log interval")

		traceEvery  = flag.Int("trace-every", 64, "sample every Nth ingest step into /debug/traces (<0 disables)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (needs -addr)")
		profileKind = flag.String("profile", "", "whole-run profile written at shutdown: "+obs.ProfileKinds)
		profileOut  = flag.String("profile-out", "", "profile output path (default streambrain-stream.<kind>.pprof)")
	)
	flag.Parse()

	prof, err := obs.StartProfile(*profileKind, profilePath(*profileOut, "streambrain-stream", *profileKind))
	if err != nil {
		log.Fatal(err)
	}

	// The input: a real CSV replay or the synthetic physics generator,
	// paced to -rate.
	ds, err := higgs.Load(*csvPath, 0, *events, *seed)
	if err != nil {
		log.Fatal(err)
	}
	src := stream.NewDatasetSource(ds, *loop, *rate)
	emitting := ds.Len()
	if *loop > 0 {
		emitting = *loop
	}
	log.Printf("source: %d events loaded, emitting %d at %s",
		ds.Len(), emitting, rateString(*rate))

	// The outputs: an in-process serving registry and/or a bundle file.
	var pubs stream.MultiPublisher
	var reg *serve.Registry
	if *addr != "" {
		reg = serve.NewRegistry(*replicas, serve.NamedBackendFactory(*backendName, *workers))
		pubs = append(pubs, &stream.RegistryPublisher{Reg: reg})
	}
	if *saveBundle != "" {
		pubs = append(pubs, stream.FilePublisher{Path: *saveBundle})
	}
	var pub stream.Publisher
	if len(pubs) > 0 {
		pub = pubs
	}

	// One telemetry registry and one trace ring cover the whole process:
	// the pipeline's ingest metrics/spans and (with -addr) the co-located
	// prediction server's land side by side on /metrics and /debug/traces.
	obsReg := obs.NewRegistry()
	var tracer *obs.Tracer
	if *traceEvery >= 0 {
		every := *traceEvery
		if every == 0 {
			every = 64
		}
		tracer = obs.NewTracer(every, 64)
	}

	params := core.DefaultParams()
	params.MCUs = *mcus
	params.HCUs = *hcus
	params.ReceptiveField = *rf
	params.BatchSize = *batch
	params.Seed = *seed
	pipe, err := stream.New(stream.Config{
		Backend:      *backendName,
		Workers:      *workers,
		Params:       params,
		Bins:         *bins,
		Warmup:       *warmup,
		BatchSize:    *batch,
		Window:       *window,
		DriftDrop:    *driftDrop,
		PublishEvery: *publishEvery,
		RefitEvery:   *refitEvery,
		Obs:          obsReg,
		Tracer:       tracer,
	}, pub)
	if err != nil {
		log.Fatal(err)
	}

	if *addr != "" {
		srv := serve.NewServer(reg, serve.ServerConfig{Obs: obsReg, Tracer: tracer}, "")
		defer srv.Close()
		mux := http.NewServeMux()
		mux.Handle("/", srv.Handler())
		if *pprofOn {
			obs.AttachPprof(mux)
			log.Printf("pprof mounted at /debug/pprof/")
		}
		go func() {
			log.Printf("serving on %s while training", *addr)
			if err := http.ListenAndServe(*addr, mux); err != nil {
				log.Fatal(err)
			}
		}()
	} else if *pprofOn {
		log.Printf("-pprof has no effect without -addr")
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	go progress(ctx, pipe, *statsEvery)

	start := time.Now()
	if err := pipe.Run(ctx, src); err != nil && ctx.Err() == nil {
		log.Fatal(err)
	}
	logStats(pipe.Stats(), time.Since(start))
	if err := prof.Stop(); err != nil {
		log.Fatal(err)
	}
	if prof != nil {
		log.Printf("wrote %s profile to %s", *profileKind, prof.Path())
	}
}

// profilePath resolves -profile-out, defaulting to <cmd>.<kind>.pprof.
func profilePath(out, cmd, kind string) string {
	if out != "" || kind == "" {
		return out
	}
	return cmd + "." + kind + ".pprof"
}

// progress logs one status line per interval until ctx ends.
func progress(ctx context.Context, p *stream.Pipeline, every time.Duration) {
	if every <= 0 {
		return
	}
	t := time.NewTicker(every)
	defer t.Stop()
	start := time.Now()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			logStats(p.Stats(), time.Since(start))
		}
	}
}

func logStats(s stream.Stats, elapsed time.Duration) {
	// Window metrics are only meaningful once the prequential window has
	// filled (Stats gates them; see stream.Stats.WindowReady).
	metrics := "acc    n/a  auc    n/a"
	if s.WindowReady {
		metrics = fmt.Sprintf("acc %.3f  auc %.3f", s.WindowAccuracy, s.WindowAUC)
	}
	log.Printf("%8.1fs  %9d events  %6d batches  %s  publishes %d  refits %d  drifts %d  (%.0f events/s)",
		elapsed.Seconds(), s.Events, s.Batches, metrics,
		s.Publishes, s.Refits, s.Drifts, float64(s.Events)/elapsed.Seconds())
}

func rateString(rate float64) string {
	if rate <= 0 {
		return "full speed"
	}
	return time.Duration(float64(time.Second)/rate).String() + "/event"
}
