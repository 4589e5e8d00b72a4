// Package streambrain is a Go implementation of StreamBrain, the HPC
// framework for brain-inspired BCPNN learning, together with the full
// evaluation pipeline of "Higgs Boson Classification: Brain-inspired BCPNN
// Learning with StreamBrain" (Svedin et al., CLUSTER 2021).
//
// The public API mirrors the Keras-inspired workflow the paper describes
// (§III: construct the network, then call the training function):
//
//	train, test, enc := streambrain.LoadHiggs(streambrain.HiggsOptions{})
//	_ = enc
//	model, _ := streambrain.NewModel(streambrain.Config{
//		Backend: "fused", // the default; "" selects it too
//		Params:  streambrain.DefaultParams(),
//	}, train.Hypercolumns, train.UnitsPerHC, train.Classes)
//	model.Fit(train)
//	acc, auc := model.Evaluate(test)
//
// Heavy lifting lives in internal packages: internal/core (the BCPNN
// model), internal/backend (naive / parallel / fused / simulator kernels),
// internal/mpi (pluggable message-passing fabric: in-process channel ranks
// or TCP ranks as separate OS processes), internal/higgs and internal/mnistgen
// (dataset substrates), internal/viz (in-situ visualization), internal/serve
// (model bundles, the request micro-batcher, and the HTTP prediction
// service behind cmd/streambrain-serve), internal/stream (the online
// continual-learning pipeline behind cmd/streambrain-stream, which trains
// on a live event stream and publishes snapshots into the serving
// registry), and internal/experiments (the per-figure harnesses). See
// DESIGN.md for the complete inventory.
//
// A trained model plus its fitted encoder round-trips as one bundle —
// SaveModel / LoadModel — which is what cmd/streambrain-serve serves online:
//
//	_ = streambrain.SaveModel(f, model, enc)
//	// later, in the serving process:
//	model, enc, _ := streambrain.LoadModel(f, streambrain.Config{})
//
// The distributed entry point is cmd/streambrain-dist, the repository's
// mpirun (DESIGN.md §10): it forks N rank processes that train
// data-parallel BCPNN over the TCP fabric (core.DistributedTrainer /
// core.TrainRank over internal/mpi), shards the Higgs events by rank, and
// has rank 0 save the merged model as a bundle cmd/streambrain-serve loads
// unchanged.
//
// The compute stack is precision-parameterized (DESIGN.md §9): setting
// Params.Precision = streambrain.Float32 runs the forward passes outside
// the training step — readout inputs and prediction — on the float32
// kernel set (SIMD-accelerated on amd64), while the training step and the
// BCPNN traces stay float64; bundles carry the precision and serve it end
// to end.
//
// Runnable Example functions for each of these entry points live in
// example_test.go and run under go test.
package streambrain
