// Command streambrain-dist is the mpirun of the repository (DESIGN.md §10):
// it launches BCPNN data-parallel training across N ranks and merges the
// result into one serve-loadable bundle.
//
//	streambrain-dist -ranks 4 -transport tcp -epochs 5 -save-bundle model.bundle
//	streambrain-serve -bundle model.bundle
//
// With -transport tcp (the default) every rank is a separate OS process:
// the launcher re-executes itself once per rank, rank 0 binds the
// rendezvous listener and publishes its address through a temp file, the
// other ranks join it, and the mesh of length-prefixed binary frames
// carries the trace allreduces. With -transport chan the ranks are
// goroutines inside this process — same collectives, zero-copy-distance
// links — which is the right tool for quick local sweeps.
//
// Every rank process loads the identically-seeded dataset, takes its
// round-robin shard, and trains with the rank-rescaled trace rate
// (core.DistributedParams), so the merged model is invariant in the rank
// count (experiment E9 asserts this). Rank 0 calibrates the decision
// threshold, evaluates the held-out split, and writes the bundle.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"streambrain"
	"streambrain/internal/backend"
	"streambrain/internal/core"
	"streambrain/internal/data"
	"streambrain/internal/mpi"
	"streambrain/internal/obs"
	"streambrain/internal/serve"
)

// opts carries every flag a rank subprocess must agree on with the
// launcher; toArgs re-serializes them for the child command lines.
type opts struct {
	ranks      int
	transport  string
	backend    string
	workers    int
	csvPath    string
	events     int
	bins       int
	mcus       int
	hcus       int
	rf         float64
	taupdt     float64
	batch      int
	unsup      int
	sup        int
	mergeEvery int
	seed       int64
	saveBundle string

	obsAddr     string
	profileKind string
	profileOut  string
}

func (o opts) toArgs() []string {
	return []string{
		"-ranks", strconv.Itoa(o.ranks),
		"-transport", o.transport,
		"-backend", o.backend,
		"-workers", strconv.Itoa(o.workers),
		"-higgs-csv", o.csvPath,
		"-events", strconv.Itoa(o.events),
		"-bins", strconv.Itoa(o.bins),
		"-mcus", strconv.Itoa(o.mcus),
		"-hcus", strconv.Itoa(o.hcus),
		"-rf", strconv.FormatFloat(o.rf, 'g', -1, 64),
		"-taupdt", strconv.FormatFloat(o.taupdt, 'g', -1, 64),
		"-batch", strconv.Itoa(o.batch),
		"-unsup-epochs", strconv.Itoa(o.unsup),
		"-sup-epochs", strconv.Itoa(o.sup),
		"-merge-every", strconv.Itoa(o.mergeEvery),
		"-seed", strconv.FormatInt(o.seed, 10),
		"-save-bundle", o.saveBundle,
		"-obs-addr", o.obsAddr,
		"-profile", o.profileKind,
		"-profile-out", o.profileOut,
	}
}

func (o opts) params() streambrain.Params {
	p := streambrain.DefaultParams()
	p.HCUs = o.hcus
	p.MCUs = o.mcus
	p.ReceptiveField = o.rf
	p.Taupdt = o.taupdt
	p.BatchSize = o.batch
	p.UnsupervisedEpochs = o.unsup
	p.SupervisedEpochs = o.sup
	p.Seed = o.seed
	return p
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("streambrain-dist: ")

	var o opts
	flag.IntVar(&o.ranks, "ranks", 2, "number of ranks (OS processes with -transport tcp)")
	flag.StringVar(&o.transport, "transport", "tcp", "fabric: chan (goroutine ranks) | tcp (process ranks)")
	flag.StringVar(&o.backend, "backend", "fused", "compute backend per rank: naive | parallel | fused | gpusim")
	flag.IntVar(&o.workers, "workers", 0, "backend worker-team size per rank (0 = all cores)")
	flag.StringVar(&o.csvPath, "higgs-csv", "", "path to the real UCI HIGGS CSV (empty = synthetic)")
	flag.IntVar(&o.events, "events", 24000, "synthetic event count")
	flag.IntVar(&o.bins, "bins", 10, "quantile one-hot bins per feature")
	flag.IntVar(&o.mcus, "mcus", 300, "minicolumn units per HCU")
	flag.IntVar(&o.hcus, "hcus", 1, "hidden hypercolumn units")
	flag.Float64Var(&o.rf, "rf", 0.40, "receptive-field fraction [0,1]")
	flag.Float64Var(&o.taupdt, "taupdt", 0.012, "trace learning rate (rescaled per rank count)")
	flag.IntVar(&o.batch, "batch", 128, "mini-batch size per rank")
	epochs := flag.Int("epochs", 5, "epochs for both phases (overridden by -unsup-epochs/-sup-epochs)")
	flag.IntVar(&o.unsup, "unsup-epochs", -1, "unsupervised epochs (-1 = -epochs)")
	flag.IntVar(&o.sup, "sup-epochs", -1, "supervised epochs (-1 = -epochs)")
	flag.IntVar(&o.mergeEvery, "merge-every", 1, "local batches between trace allreduces")
	flag.Int64Var(&o.seed, "seed", 1, "random seed (must match across ranks; the launcher forwards it)")
	flag.StringVar(&o.saveBundle, "save-bundle", "", "rank 0 writes the merged serving bundle here")
	flag.StringVar(&o.obsAddr, "obs-addr", "", "per-rank /metrics + pprof listen address; an explicit port is offset by the rank (tcp transport only)")
	flag.StringVar(&o.profileKind, "profile", "", "per-rank whole-run profile written at exit: "+obs.ProfileKinds)
	flag.StringVar(&o.profileOut, "profile-out", "", "profile output path stem (default streambrain-dist.<kind>.pprof; ranks append .rank<N>)")
	rank := flag.Int("rank", -1, "internal: this process's rank (set by the launcher)")
	rendezvous := flag.String("rendezvous", "", "internal: rank-0 rendezvous address to join")
	rendezvousFile := flag.String("rendezvous-file", "", "internal: rank 0 writes its rendezvous address here")
	flag.Parse()

	if o.unsup < 0 {
		o.unsup = *epochs
	}
	if o.sup < 0 {
		o.sup = *epochs
	}
	if o.ranks < 1 {
		log.Fatal("-ranks must be >= 1")
	}
	switch o.transport {
	case "chan", "tcp":
	default:
		log.Fatalf("unknown -transport %q (want chan or tcp)", o.transport)
	}

	switch {
	case *rank >= 0:
		if err := runRank(o, *rank, *rendezvous, *rendezvousFile); err != nil {
			log.Fatalf("rank %d: %v", *rank, err)
		}
	case o.transport == "chan":
		if err := runChan(o); err != nil {
			log.Fatal(err)
		}
	default:
		if err := launch(o); err != nil {
			log.Fatal(err)
		}
	}
}

// prepare loads the dataset and derives this world's shared model
// parameters. Deterministic in the flags, so every rank process computes
// identical splits and identically-seeded replicas.
func prepare(o opts) (train, test *data.Encoded, enc *data.Encoder, p streambrain.Params, err error) {
	tr, te, e, err := streambrain.LoadHiggs(streambrain.HiggsOptions{
		CSVPath: o.csvPath,
		Events:  o.events,
		Bins:    o.bins,
		Seed:    o.seed,
	})
	if err != nil {
		return nil, nil, nil, p, err
	}
	return tr, te, e, o.params(), nil
}

// runChan trains all ranks as goroutines in this process — the in-process
// fabric, no forking.
func runChan(o opts) error {
	if o.obsAddr != "" {
		log.Printf("-obs-addr is ignored with -transport chan (goroutine ranks share one process)")
	}
	prof, err := obs.StartProfile(o.profileKind,
		profilePath(o.profileOut, "streambrain-dist", o.profileKind))
	if err != nil {
		return err
	}
	defer stopProfile(prof, o.profileKind)
	train, test, enc, p, err := prepare(o)
	if err != nil {
		return err
	}
	fmt.Printf("training %d chan ranks: %d events each, %d MCUs, epochs %d+%d\n",
		o.ranks, (train.Len()+o.ranks-1)/o.ranks, o.mcus, o.unsup, o.sup)
	dt := core.NewDistributedTrainer(o.ranks, o.backend, o.workers,
		train.Hypercolumns, train.UnitsPerHC, train.Classes, p, train)
	dt.MergeEvery = o.mergeEvery
	start := time.Now()
	net, err := dt.Train(o.unsup, o.sup)
	if err != nil {
		return err
	}
	return report(o, net, test, enc, time.Since(start))
}

// runRank is one TCP rank process: rendezvous (rank 0) or join, then the
// shared SPMD training body.
func runRank(o opts, rank int, rendezvousAddr, rendezvousFile string) error {
	if o.transport != "tcp" {
		return fmt.Errorf("-rank is only meaningful with -transport tcp")
	}
	if rank >= o.ranks {
		return fmt.Errorf("rank %d outside world of %d", rank, o.ranks)
	}
	if o.profileKind != "" {
		path := profilePath(o.profileOut, "streambrain-dist", o.profileKind)
		prof, err := obs.StartProfile(o.profileKind, path+".rank"+strconv.Itoa(rank))
		if err != nil {
			return err
		}
		defer stopProfile(prof, o.profileKind)
	}
	topt := mpi.TCPOptions{RendezvousTimeout: 2 * time.Minute}

	var comm *mpi.Comm
	var err error
	if rank == 0 {
		addr := rendezvousAddr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		rv, rvErr := mpi.NewRendezvous(addr)
		if rvErr != nil {
			return rvErr
		}
		if rendezvousFile != "" {
			// Atomic publish: the launcher polls for the final name, so it
			// can never read a half-written address.
			tmp := rendezvousFile + ".tmp"
			if err := os.WriteFile(tmp, []byte(rv.Addr()), 0o644); err != nil {
				return err
			}
			if err := os.Rename(tmp, rendezvousFile); err != nil {
				return err
			}
		}
		// Data prep happens before Accept so the rendezvous wait overlaps
		// every rank's (identical) preprocessing instead of serializing it.
		train, test, enc, p, err := prepare(o)
		if err != nil {
			return err
		}
		comm, err = rv.Accept(o.ranks, topt)
		if err != nil {
			return err
		}
		defer comm.Close()
		return trainRankProcess(o, comm, train, test, enc, p)
	}

	train, test, enc, p, err := prepare(o)
	if err != nil {
		return err
	}
	comm, err = mpi.JoinTCP(rendezvousAddr, rank, o.ranks, topt)
	if err != nil {
		return err
	}
	defer comm.Close()
	return trainRankProcess(o, comm, train, test, enc, p)
}

// trainRankProcess is the SPMD body every TCP rank runs once its Comm is up.
func trainRankProcess(o opts, c *mpi.Comm, train, test *data.Encoded,
	enc *data.Encoder, p streambrain.Params) error {
	if o.obsAddr != "" {
		if err := startRankObs(o.obsAddr, c); err != nil {
			return err
		}
	}
	shard := train.Subset(core.ShardRows(train.Len(), o.ranks, c.Rank()))
	be, err := backend.New(o.backend, o.workers)
	if err != nil {
		return err
	}
	net := core.NewNetwork(be, train.Hypercolumns, train.UnitsPerHC, train.Classes,
		core.DistributedParams(p, o.ranks))
	if c.Rank() == 0 {
		fmt.Printf("world up: %d tcp ranks, shard %d events, %d MCUs, epochs %d+%d\n",
			c.Size(), shard.Len(), o.mcus, o.unsup, o.sup)
	}
	start := time.Now()
	if err := core.TrainRank(c, net, shard, o.unsup, o.sup, o.mergeEvery); err != nil {
		return err
	}
	if c.Rank() != 0 {
		return nil
	}
	// Same gate as DistributedTrainer.Train: calibration reads the readout,
	// which only exists after a supervised phase — and the two transports
	// must report identical metrics for identical flags.
	if o.sup > 0 {
		net.CalibrateThreshold(shard)
	}
	return report(o, net, test, enc, time.Since(start))
}

// startRankObs instruments the rank's communicator on a fresh telemetry
// registry and serves it (plus pprof) on this rank's offset of -obs-addr:
// rank r listens on port+r, so `-ranks 4 -obs-addr :9000` yields four
// scrapable endpoints 9000..9003, one per process (DESIGN.md §11).
func startRankObs(addr string, c *mpi.Comm) error {
	rankAddr, err := offsetAddr(addr, c.Rank())
	if err != nil {
		return fmt.Errorf("-obs-addr: %w", err)
	}
	reg := obs.NewRegistry()
	c.Instrument(reg)
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	obs.AttachPprof(mux)
	ln, err := net.Listen("tcp", rankAddr)
	if err != nil {
		return fmt.Errorf("rank %d obs listener: %w", c.Rank(), err)
	}
	fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
	go func() {
		// The listener dies with the rank process; training never waits on it.
		_ = http.Serve(ln, mux)
	}()
	return nil
}

// offsetAddr shifts an explicit port by rank; port 0 (kernel-assigned) is
// left alone since distinct processes can't collide on it anyway.
func offsetAddr(addr string, rank int) (string, error) {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return "", err
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("port %q is not numeric: %v", portStr, err)
	}
	if port == 0 {
		return addr, nil
	}
	return net.JoinHostPort(host, strconv.Itoa(port+rank)), nil
}

// profilePath resolves -profile-out, defaulting to <cmd>.<kind>.pprof.
func profilePath(out, cmd, kind string) string {
	if out != "" || kind == "" {
		return out
	}
	return cmd + "." + kind + ".pprof"
}

// stopProfile finishes a whole-run profile, logging where it landed.
func stopProfile(prof *obs.Profile, kind string) {
	if prof == nil {
		return
	}
	if err := prof.Stop(); err != nil {
		log.Printf("profile: %v", err)
		return
	}
	log.Printf("wrote %s profile to %s", kind, prof.Path())
}

// report prints rank 0's held-out metrics and writes the serving bundle.
func report(o opts, net *core.Network, test *data.Encoded, enc *data.Encoder,
	elapsed time.Duration) error {
	acc, auc := net.Evaluate(test)
	fmt.Printf("test accuracy %.4f, AUC %.4f (train time %.1fs)\n",
		acc, auc, elapsed.Seconds())
	if o.saveBundle != "" {
		if err := serve.SaveBundleFile(o.saveBundle, net, enc); err != nil {
			return err
		}
		fmt.Printf("saved serving bundle to %s (serve with: streambrain-serve -bundle %s)\n",
			o.saveBundle, o.saveBundle)
	}
	return nil
}

// prefixWriter stamps every child output line with its rank so interleaved
// rank logs stay attributable. Used as the child's Stdout/Stderr directly:
// exec.Cmd then owns the pipe plumbing, and Wait does not return until the
// last byte has been relayed — no output-truncation race.
type prefixWriter struct {
	mu     sync.Mutex
	prefix string
	dst    io.Writer
	buf    []byte
}

func (w *prefixWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		fmt.Fprintf(w.dst, "%s%s\n", w.prefix, w.buf[:i])
		w.buf = w.buf[i+1:]
	}
}

// flush emits any unterminated final line.
func (w *prefixWriter) flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.buf) > 0 {
		fmt.Fprintf(w.dst, "%s%s\n", w.prefix, w.buf)
		w.buf = nil
	}
}

// rankProc is one spawned rank: its command and the channel its Wait result
// arrives on (Wait runs in a goroutine from the moment of spawning, so the
// launcher can observe an early death while doing something else).
type rankProc struct {
	cmd  *exec.Cmd
	done chan error
	out  [2]*prefixWriter
}

// launch forks o.ranks subprocesses of this binary, wiring rank 0's
// rendezvous address to the others through a temp file — the process-manager
// half of mpirun.
func launch(o opts) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "streambrain-dist")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	addrFile := filepath.Join(dir, "rendezvous")

	fmt.Printf("launching %d tcp rank processes\n", o.ranks)
	start := time.Now()
	procs := make([]*rankProc, o.ranks)
	spawn := func(rank int, extra ...string) error {
		args := append(o.toArgs(), "-rank", strconv.Itoa(rank))
		args = append(args, extra...)
		cmd := exec.Command(self, args...)
		p := &rankProc{cmd: cmd, done: make(chan error, 1)}
		p.out[0] = &prefixWriter{prefix: fmt.Sprintf("[rank %d] ", rank), dst: os.Stdout}
		p.out[1] = &prefixWriter{prefix: fmt.Sprintf("[rank %d] ", rank), dst: os.Stderr}
		cmd.Stdout, cmd.Stderr = p.out[0], p.out[1]
		if err := cmd.Start(); err != nil {
			return err
		}
		go func() { p.done <- cmd.Wait() }()
		procs[rank] = p
		return nil
	}

	if err := spawn(0, "-rendezvous-file", addrFile); err != nil {
		return err
	}
	addr, err := awaitAddr(addrFile, procs[0], 60*time.Second)
	if err != nil {
		procs[0].cmd.Process.Kill()
		<-procs[0].done
		procs[0].out[0].flush()
		procs[0].out[1].flush()
		return err
	}
	for r := 1; r < o.ranks; r++ {
		if err := spawn(r, "-rendezvous", addr); err != nil {
			for _, p := range procs[:r] {
				p.cmd.Process.Kill()
			}
			return err
		}
	}

	// Reap in completion order so one crashed rank fails the whole job
	// immediately: the survivors would otherwise sit blocked in collectives
	// until their fabric deadline expires. First failure wins (the root
	// cause dies first; the kills below only produce teardown echoes).
	type exited struct {
		rank int
		err  error
	}
	reaped := make(chan exited, o.ranks)
	for r, p := range procs {
		go func(r int, p *rankProc) { reaped <- exited{r, <-p.done} }(r, p)
	}
	var firstErr error
	for n := 0; n < o.ranks; n++ {
		e := <-reaped
		if e.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("rank %d: %w", e.rank, e.err)
			for _, p := range procs {
				p.cmd.Process.Kill() // no-op error on already-exited ranks
			}
		}
	}
	for _, p := range procs {
		p.out[0].flush()
		p.out[1].flush()
	}
	if firstErr != nil {
		return firstErr
	}
	fmt.Printf("all %d ranks done in %.1fs\n", o.ranks, time.Since(start).Seconds())
	return nil
}

// awaitAddr polls for the rendezvous address rank 0 publishes, failing fast
// when rank 0 dies first (its Wait goroutine signals done).
func awaitAddr(path string, rank0 *rankProc, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if raw, err := os.ReadFile(path); err == nil && len(raw) > 0 {
			return string(raw), nil
		}
		select {
		case err := <-rank0.done:
			rank0.done <- err // the reap loop's receive still gets it
			return "", fmt.Errorf("rank 0 exited before publishing its rendezvous address: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}
	return "", fmt.Errorf("rank 0 did not publish a rendezvous address within %v", timeout)
}
