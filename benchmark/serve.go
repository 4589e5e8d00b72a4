package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"streambrain"
	"streambrain/internal/backend"
	"streambrain/internal/data"
	"streambrain/internal/fleet"
	"streambrain/internal/higgs"
	"streambrain/internal/metrics"
	"streambrain/internal/serve"
	"streambrain/internal/serve/wire"
	"streambrain/internal/tensor"
)

// Sizes of serve-fleet at refSeconds.
const (
	fixtureEvents = 32000 // events the fixture model trains on, 2+2 epochs
	fixtureUnits  = 100   // 1x100 MCUs, the geometry of every committed serve and fleet report
	fleetReplicas = 2
	callers       = 2    // closed loop: each caller sends its next request when the last one returned
	frameEvents   = 64   // = the batcher's MaxBatch, so dispatch is immediate and the run is CPU-bound
	bodyCount     = 256  // distinct pre-encoded request bodies
	warmRequests  = 200  // sent before anything is timed
	passCount     = 15   // serve metrics are the median over passes
	passRequests  = 6667 // per pass
)

// fleetUnderTest is a router over serve replicas on loopback listeners.
type fleetUnderTest struct {
	servers []*serve.Server
	fronts  []*httptest.Server // replica listeners
	router  *fleet.Router
	front   *httptest.Server // the router's listener
}

func bootFleet(raw []byte, replicas int) (*fleetUnderTest, error) {
	f := &fleetUnderTest{}
	pool := fleet.NewPool(fleet.Config{})
	for i := 0; i < replicas; i++ {
		reg := serve.NewRegistry(1, serve.NamedBackendFactory("parallel", 0))
		if err := reg.LoadBytes(raw, fmt.Sprintf("replica-%d", i), time.Now()); err != nil {
			f.close()
			pool.Close()
			return nil, err
		}
		srv := serve.NewServer(reg, serve.ServerConfig{}, "")
		ts := httptest.NewServer(srv.Handler())
		f.servers, f.fronts = append(f.servers, srv), append(f.fronts, ts)
		pool.Add(ts.Listener.Addr().String())
	}
	f.router = fleet.NewRouter(pool, "")
	f.front = httptest.NewServer(f.router.Handler())
	return f, nil
}

func (f *fleetUnderTest) close() {
	if f.front != nil {
		f.front.Close()
		f.router.Close()
	}
	for i, ts := range f.fronts {
		ts.Close()
		f.servers[i].Close()
	}
}

type serveWorkload struct {
	fleet    *fleetUnderTest
	client   *http.Client
	model    *streambrain.Model
	enc      *data.Encoder
	raw      []byte      // the fixture bundle
	events   [][]float64 // bodyCount*frameEvents raw events
	labels   []int
	bodies   [][]byte // request frames
	expected [][]byte // the response frame each body must produce
	scores   []float64
	preds    []int
}

func (w *serveWorkload) close() {
	if w.fleet != nil {
		w.fleet.close()
		w.client.CloseIdleConnections()
		w.fleet = nil
	}
}

func (w *serveWorkload) setup(b *bench) error {
	ds := higgs.Generate(fixtureEvents, 0.5, b.seed)
	w.enc = data.FitEncoder(ds, trainBins)
	encoded := w.enc.Transform(ds)
	p := streambrain.DefaultParams()
	p.MCUs, p.UnsupervisedEpochs, p.SupervisedEpochs, p.Seed = fixtureUnits, 2, 2, b.seed
	model, err := streambrain.NewModel(streambrain.Config{Params: p}, encoded.Hypercolumns, encoded.UnitsPerHC, encoded.Classes)
	if err != nil {
		return err
	}
	fit := b.tr.timed("streambrain.Model.Fit(fixture)", b.phase, func() { model.Fit(encoded) })
	b.add("train_events_per_s", float64(encoded.Len()*(p.UnsupervisedEpochs+p.SupervisedEpochs))/fit.Seconds())
	w.model = model
	var buf bytes.Buffer
	if err := streambrain.SaveModel(&buf, model, w.enc); err != nil {
		return err
	}
	w.raw = buf.Bytes()

	// Requests are events the fixture never saw; what each must answer is
	// computed here, outside the serving path, by Bundle.Predict.
	reqs := higgs.Generate(bodyCount*frameEvents, 0.5, b.seed+1)
	w.labels = reqs.Y
	w.events = make([][]float64, reqs.Len())
	for i := range w.events {
		w.events[i] = reqs.X.Row(i)
	}
	ref, err := serve.LoadBundle(bytes.NewReader(w.raw), backend.MustNew("parallel", 0))
	if err != nil {
		return err
	}
	w.preds, w.scores, err = ref.Predict(w.events)
	if err != nil {
		return err
	}
	w.bodies, w.expected = make([][]byte, bodyCount), make([][]byte, bodyCount)
	for i := range w.bodies {
		lo, hi := i*frameEvents, (i+1)*frameEvents
		if w.bodies[i], err = wire.AppendRequest(nil, w.events[lo:hi], false); err != nil {
			return err
		}
		// Every replica loaded the bundle once, so the generation is 1.
		if w.expected[i], err = wire.AppendResponse(nil, w.preds[lo:hi], w.scores[lo:hi], ref.Net.Threshold(), 1); err != nil {
			return err
		}
	}

	if w.fleet, err = bootFleet(w.raw, fleetReplicas); err != nil {
		return err
	}
	// One kept-alive connection per caller; a write buffer that holds a whole
	// 14 KB request frame and no gzip negotiation keep the generator's own
	// cost per request low (bench.generator_max_rps measures it).
	w.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: callers, WriteBufferSize: 32 << 10, DisableCompression: true,
	}}
	warm := w.load(nil, -1, w.fleet.front.URL, warmRequests, w.bodies, w.expected, wire.ContentType)
	if warm.failed > 0 {
		return fmt.Errorf("%d of %d warm-up requests failed: %s", warm.failed, warmRequests, warm.firstFailure)
	}
	return nil
}

// passStats is what one closed-loop pass over a server observed.
type passStats struct {
	wall         time.Duration
	lat          []time.Duration
	failed       int64
	firstFailure string
}

// load sends n requests from closed-loop callers to url and checks every
// response byte for byte against want (nil skips the check). It is the whole
// load generator: bench.generator_max_rps is this function against a stub.
func (w *serveWorkload) load(tr *tracer, parent int, url string, n int, bodies, want [][]byte, contentType string) passStats {
	return w.loadFrom(callers, tr, parent, url, n, bodies, want, contentType)
}

func (w *serveWorkload) loadFrom(callers int, tr *tracer, parent int, url string, n int, bodies, want [][]byte, contentType string) passStats {
	st := passStats{lat: make([]time.Duration, n)}
	var next, failed atomic.Int64
	var firstFailure atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				id := tr.beginLane("client request", parent, c+1)
				t0 := time.Now()
				err := w.post(url, contentType, bodies[i%len(bodies)], &got)
				st.lat[i] = time.Since(t0)
				tr.finish(id)
				if err == nil && want != nil && !sameAnswer(got.Bytes(), want[i%len(want)]) {
					err = fmt.Errorf("request %d: response differs from Bundle.Predict", i)
				}
				if err != nil {
					failed.Add(1)
					firstFailure.CompareAndSwap(nil, err.Error())
				}
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(start)
	st.failed = failed.Load()
	st.firstFailure, _ = firstFailure.Load().(string)
	return st
}

func (w *serveWorkload) post(url, contentType string, body []byte, into *bytes.Buffer) error {
	resp, err := w.client.Post(url+"/v1/predict", contentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	into.Reset()
	if _, err := into.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, into.String())
	}
	return nil
}

// sameAnswer compares two response frames bit for bit, except the bundle
// generation (bytes 16 to 24), which says which load served the answer, not
// what the answer is.
func sameAnswer(got, want []byte) bool {
	return len(got) == len(want) && len(got) >= 24 &&
		bytes.Equal(got[:16], want[:16]) && bytes.Equal(got[24:], want[24:])
}

func (w *serveWorkload) measure(b *bench) error {
	n := b.scaled(passRequests, 200)
	var total time.Duration
	for pass := 0; pass < passCount; pass++ {
		id := b.tr.begin(fmt.Sprintf("pass %d", pass), b.phase)
		before := mallocs()
		st := w.load(b.tr, id, w.fleet.front.URL, n, w.bodies, w.expected, wire.ContentType)
		b.add("serve.allocs_per_req", float64(mallocs()-before)/float64(n))
		b.tr.finish(id)
		total += st.wall
		b.count(int64(n), st.failed)
		b.check(st.failed == 0, "pass %d: %s", pass, st.firstFailure)
		b.add("predict_events_per_s", float64((int64(n)-st.failed)*frameEvents)/st.wall.Seconds())
		b.add("predict_p50_ms", quantile(durationsMs(st.lat), 0.50))
		b.add("predict_p99_ms", quantile(durationsMs(st.lat), 0.99))
	}
	b.add("pipeline_wall_s", (b.lastSetup + total).Seconds())
	// What a user of the fleet gets: the quality of the answers it serves,
	// scored against the labels the generator kept.
	auc := metrics.AUC(w.scores, w.labels)
	b.add("test_auc", auc)
	b.add("test_accuracy", metrics.Accuracy(w.preds, w.labels))
	b.check(auc >= aucFloor, "served AUC %.4f below the floor %.2f", auc, aucFloor)
	b.add("serve.bundle.bytes", float64(len(w.raw)))
	return nil
}

func (w *serveWorkload) probes(b *bench) error {
	parent := b.tr.begin("serve probes", b.phase)
	defer b.tr.finish(parent)
	n := b.scaled(4000, 100)
	measured := b.value("predict_events_per_s") / frameEvents // requests per second just measured

	// Inside the replicas and the router, from the registries they export.
	var queue, encode, forward, batches, batched float64
	for _, srv := range w.fleet.servers {
		expo, err := scrape(srv.Obs())
		if err != nil {
			return err
		}
		queue += histMeanMs(expo, "streambrain_serve_queue_wait_seconds") / fleetReplicas
		encode += histMeanMs(expo, "streambrain_serve_encode_seconds") / fleetReplicas
		forward += histMeanMs(expo, "streambrain_serve_forward_seconds") / fleetReplicas
		batches += sumSamples(expo, "streambrain_serve_batch_size_count")
		batched += sumSamples(expo, "streambrain_serve_batch_size_sum")
	}
	b.add("serve.queue_wait_ms", queue)
	b.add("serve.encode_ms", encode)
	b.add("serve.forward_ms", forward)
	b.add("serve.avg_batch", batched/batches)
	expo, err := scrape(w.fleet.router.Pool().Metrics().Registry())
	if err != nil {
		return err
	}
	b.add("fleet.forward_ms", histMeanMs(expo, "streambrain_fleet_forward_seconds"))
	b.add("fleet.retries", sumSamples(expo, "streambrain_fleet_retries_total"))

	// The generator alone, against a stub that answers with a canned frame.
	stub := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // the stub only has to drain the request
		rw.Header().Set("Content-Type", wire.ContentType)
		_, _ = rw.Write(w.expected[0])
	}))
	canned := [][]byte{w.expected[0]}
	var maxRPS float64
	for i := 0; i < 3; i++ {
		st := w.load(nil, -1, stub.URL, 2*n, w.bodies, canned, wire.ContentType)
		maxRPS = max(maxRPS, float64(2*n)/st.wall.Seconds())
	}
	stub.Close()
	b.add("bench.generator_max_rps", maxRPS)
	b.validity(maxRPS >= 5*measured, "the generator alone reaches %.0f req/s, less than 5x the measured %.0f req/s", maxRPS, measured)

	// The same load at one replica's own listener; then what the router adds
	// to a request, as the difference between one caller's latency through a
	// router that has only one replica and straight at that replica. One
	// caller, because with two the replica's single worker is the queue both
	// paths wait in and the hop disappears behind it.
	direct := w.load(nil, -1, w.fleet.fronts[0].URL, n, w.bodies, w.expected, wire.ContentType)
	b.add("serve.direct_p50_ms", quantile(durationsMs(direct.lat), 0.5))
	one, err := bootFleet(w.raw, 1)
	if err != nil {
		return err
	}
	w.load(nil, -1, one.front.URL, warmRequests, w.bodies, w.expected, wire.ContentType)
	alone := w.loadFrom(1, nil, -1, one.fronts[0].URL, n/2, w.bodies, w.expected, wire.ContentType)
	routed := w.loadFrom(1, nil, -1, one.front.URL, n/2, w.bodies, w.expected, wire.ContentType)
	one.close()
	b.count(int64(n+2*(n/2)), direct.failed+alone.failed+routed.failed)
	b.add("fleet.hop_ms", quantile(durationsMs(routed.lat), 0.5)-quantile(durationsMs(alone.lat), 0.5))

	// The regimes the full-frame passes bypass: one-event frames wait out the
	// batcher's MaxWait window; JSON is the codec the binary path is not using.
	singles, jsons := make([][]byte, bodyCount), make([][]byte, bodyCount)
	for i := range singles {
		if singles[i], err = wire.AppendRequest(nil, w.events[i:i+1], false); err != nil {
			return err
		}
		if jsons[i], err = json.Marshal(serve.PredictRequest{Events: w.events[i*frameEvents : (i+1)*frameEvents]}); err != nil {
			return err
		}
	}
	single := w.load(nil, -1, w.fleet.front.URL, n/10, singles, nil, wire.ContentType)
	viaJSON := w.load(nil, -1, w.fleet.front.URL, n/10, jsons, nil, "application/json")
	b.count(int64(2*(n/10)), single.failed+viaJSON.failed)
	b.add("serve.single_p50_ms", quantile(durationsMs(single.lat), 0.5))
	b.add("serve.json_p50_ms", quantile(durationsMs(viaJSON.lat), 0.5))
	var idle []float64
	for i := 0; i < n/20; i++ {
		idle = append(idle, ms(b.tr.timed("serve.Batcher.Predict", parent, func() {
			_, _, err = w.fleet.servers[0].Batcher().Predict(context.Background(), w.events[i])
		})))
		if err != nil {
			return err
		}
	}
	b.add("serve.batcher.single_ms", median(idle))

	// Single layers, outside HTTP and the batcher.
	ref, err := serve.LoadBundle(bytes.NewReader(w.raw), backend.MustNew("parallel", 0))
	if err != nil {
		return err
	}
	var decode, encodeFrame, predict []float64
	frame := w.events[:frameEvents]
	pred, score, sc := make([]int, frameEvents), make([]float64, frameEvents), new(serve.Scratch)
	var out []byte
	for i := 0; i < n/4; i++ {
		decode = append(decode, b.tr.timed("wire.DecodeRequest", parent, func() {
			var req *wire.Request
			if req, err = wire.DecodeRequest(w.bodies[i%bodyCount]); err == nil {
				req.Release()
			}
		}).Seconds()*1e6)
		predict = append(predict, ms(b.tr.timed("serve.Bundle.PredictPooled", parent, func() {
			_, err = ref.PredictPooled(frame, pred, score, sc)
		})))
		encodeFrame = append(encodeFrame, b.tr.timed("wire.AppendResponse", parent, func() {
			out, _ = wire.AppendResponse(out[:0], pred, score, 0.5, 1)
		}).Seconds()*1e6)
		if err != nil {
			return err
		}
	}
	b.add("wire.decode_us", median(decode))
	b.add("wire.encode_us", median(encodeFrame))
	b.add("serve.bundle.predict_ms", median(predict))
	hidden := w.model.Network().Hidden
	act := tensor.NewMatrix(128, hidden.Units())
	idx := w.enc.Transform(higgs.Generate(128, 0.5, b.seed+2)).Idx
	var forwardOnly []float64
	for i := 0; i < n/40; i++ {
		forwardOnly = append(forwardOnly, ms(b.tr.timed("core.HiddenLayer.Forward", parent, func() { hidden.Forward(idx, act) })))
	}
	b.add("core.hidden.forward_ms", median(forwardOnly))
	probeTransformRow(b, parent, w.enc, w.events[:streamWarmup])
	return probeBundle(b, parent, w.model, w.enc)
}
