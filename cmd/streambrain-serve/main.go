// Command streambrain-serve exposes a trained model bundle as an HTTP JSON
// prediction service with request micro-batching:
//
//	streambrain -events 40000 -hybrid -save-bundle model.bundle
//	streambrain-serve -bundle model.bundle -addr :8080
//	curl -s localhost:8080/v1/predict -d '{"events": [[...28 raw features...]]}'
//
// Concurrent requests are coalesced into single backend-sized forward passes
// (up to -max-batch events per call, waiting at most -max-wait for company),
// the same batching that gives StreamBrain its training throughput.
// POST /v1/predict also speaks the length-prefixed binary wire protocol
// (DESIGN.md §12): send a frame with
// Content-Type: application/x-streambrain-frame and the response comes back
// as a binary frame over a pooled, allocation-free hot path — the codec
// cmd/streambrain-loadtest drives with -wire binary.
// GET /healthz reports liveness, GET /stats reports request counts, batch
// amortization, and latency percentiles, GET /metrics serves the same
// counters as Prometheus text exposition, and POST /v1/reload atomically
// hot-swaps the bundle from disk without dropping in-flight requests.
//
// Observability (DESIGN.md §11): sampled request traces are downloadable at
// GET /debug/traces (load the file in chrome://tracing), -pprof mounts
// net/http/pprof under /debug/pprof/, and -profile cpu|heap|mutex records a
// whole-run profile written to -profile-out on SIGTERM/interrupt.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"streambrain/internal/fleet"
	"streambrain/internal/obs"
	"streambrain/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("streambrain-serve: ")

	var (
		bundlePath  = flag.String("bundle", "", "path to the model bundle (required)")
		addr        = flag.String("addr", ":8080", "HTTP listen address")
		backendName = flag.String("backend", "fused", "compute backend: naive | parallel | fused | gpusim")
		workers     = flag.Int("workers", 0, "per-replica backend worker-team size (0 = all cores)")
		replicas    = flag.Int("replicas", defaultReplicas(), "model replicas = concurrent batch executors")
		maxBatch    = flag.Int("max-batch", 64, "max coalesced events per backend call")
		maxWait     = flag.Duration("max-wait", 2*time.Millisecond, "max time a request waits to be batched")
		traceEvery  = flag.Int("trace-every", 0, "sample every Nth request into /debug/traces (0 = default rate, <0 disables)")
		joinAddr    = flag.String("join", "", "announce this replica to a streambrain-router fleet listener at host:port")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		profileKind = flag.String("profile", "", "whole-run profile written at shutdown: "+obs.ProfileKinds)
		profileOut  = flag.String("profile-out", "", "profile output path (default streambrain-serve.<kind>.pprof)")
	)
	flag.Parse()
	if *bundlePath == "" {
		log.Fatal("-bundle is required (train one with: streambrain -save-bundle model.bundle)")
	}

	prof, err := obs.StartProfile(*profileKind, profilePath(*profileOut, "streambrain-serve", *profileKind))
	if err != nil {
		log.Fatal(err)
	}

	reg := serve.NewRegistry(*replicas, serve.NamedBackendFactory(*backendName, *workers))
	if err := reg.LoadFile(*bundlePath); err != nil {
		log.Fatal(err)
	}
	info := reg.Info()
	log.Printf("loaded %s: %d features -> %d classes (saved from %q backend), %d replicas",
		info.Source, info.Features, info.Classes, info.SavedBackend, info.Replicas)

	srv := serve.NewServer(reg, serve.ServerConfig{
		Batcher:    serve.BatcherConfig{MaxBatch: *maxBatch, MaxWait: *maxWait},
		Obs:        obs.NewRegistry(),
		TraceEvery: *traceEvery,
	}, *bundlePath)

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if *pprofOn {
		obs.AttachPprof(mux)
		log.Printf("pprof mounted at /debug/pprof/")
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	// Listen explicitly rather than ListenAndServe so -addr :0 works: the
	// kernel-assigned port is logged (scripts parse the "serving on" line)
	// and announced to the fleet.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: mux}
	go func() {
		log.Printf("serving on %s (max-batch %d, max-wait %s)", ln.Addr(), *maxBatch, *maxWait)
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()
	if *joinAddr != "" {
		table, err := fleet.Announce(*joinAddr, ln)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("joined fleet at %s (%d members)", *joinAddr, len(table))
	}
	<-ctx.Done()

	// Graceful teardown: stop accepting, drain in-flight requests and the
	// batcher, then write the run profile.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer shutCancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	srv.Close()
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

// defaultReplicas leaves headroom for the HTTP runtime: half the cores, and
// each replica's backend still parallelizes internally.
func defaultReplicas() int {
	n := runtime.GOMAXPROCS(0) / 2
	if n < 1 {
		n = 1
	}
	return n
}
