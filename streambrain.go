package streambrain

import (
	"fmt"
	"io"
	"math/rand"

	"streambrain/internal/backend"
	"streambrain/internal/core"
	"streambrain/internal/data"
	"streambrain/internal/higgs"
	"streambrain/internal/serve"
	"streambrain/internal/sgd"
)

// Params re-exports the BCPNN hyperparameter set.
type Params = core.Params

// Precision re-exports the compute-precision selector (Params.Precision):
// Float64 is the full-precision default, Float32 runs forward passes on the
// float32 kernel set while traces stay float64 (DESIGN.md §9).
type Precision = core.Precision

// Re-exported precision values.
const (
	Float64 = core.Float64
	Float32 = core.Float32
)

// EpochHook re-exports the per-epoch observation callback used by the
// in-situ visualization adaptors.
type EpochHook = core.EpochHook

// DefaultParams returns the experiment-default hyperparameters.
func DefaultParams() Params { return core.DefaultParams() }

// Config selects the execution backend and model variant.
type Config struct {
	// Backend names the compute backend: "naive", "parallel", "fused",
	// "gpusim" or "fpgasim" (see Backends). Empty selects "fused".
	Backend string
	// Workers sets the backend worker-team size (0 = GOMAXPROCS).
	Workers int
	// Params holds the BCPNN hyperparameters (zero value = DefaultParams).
	Params Params
	// HybridSGD replaces the BCPNN classification layer with the SGD
	// softmax readout — the paper's best-performing configuration
	// (69.15% accuracy / 76.4% AUC).
	HybridSGD bool
	// SGD configures the hybrid readout (zero value = sgd.DefaultConfig).
	SGD sgd.Config
}

// Model is a trained or trainable three-layer StreamBrain network.
type Model struct {
	net *core.Network
	cfg Config
}

// NewModel builds a model for one-hot input with the given geometry
// (hypercolumns × units each) and class count.
func NewModel(cfg Config, hypercolumns, unitsPerHC, classes int) (*Model, error) {
	if cfg.Backend == "" {
		cfg.Backend = "fused"
	}
	if cfg.Params == (Params{}) {
		cfg.Params = DefaultParams()
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	be, err := backend.New(cfg.Backend, cfg.Workers)
	if err != nil {
		return nil, err
	}
	if cfg.Params.Precision.Is32() {
		if _, err := backend.New32(cfg.Backend, cfg.Workers); err != nil {
			return nil, fmt.Errorf("streambrain: Precision %q: %w", cfg.Params.Precision, err)
		}
	}
	if hypercolumns < 1 || unitsPerHC < 1 || classes < 2 {
		return nil, fmt.Errorf("streambrain: bad geometry %dx%d classes=%d",
			hypercolumns, unitsPerHC, classes)
	}
	net := core.NewNetwork(be, hypercolumns, unitsPerHC, classes, cfg.Params)
	if cfg.HybridSGD {
		if cfg.SGD == (sgd.Config{}) {
			cfg.SGD = sgd.DefaultConfig()
		}
		rng := rand.New(rand.NewSource(cfg.Params.Seed + 1))
		net.SetReadout(sgd.NewSoftmax(net.Hidden.Units(), classes, cfg.SGD, rng))
	}
	return &Model{net: net, cfg: cfg}, nil
}

// Fit trains both phases (unsupervised feature learning, then the
// classifier) with the epoch counts in Params. Hooks observe the hidden
// layer after each unsupervised epoch.
func (m *Model) Fit(train *data.Encoded, hooks ...EpochHook) {
	m.net.Train(train, hooks...)
}

// FitUnsupervised runs only the feature-learning phase.
func (m *Model) FitUnsupervised(train *data.Encoded, epochs int, hooks ...EpochHook) {
	m.net.TrainUnsupervised(train, epochs, hooks...)
}

// FitSupervised runs only the classifier phase.
func (m *Model) FitSupervised(train *data.Encoded, epochs int) {
	m.net.TrainSupervised(train, epochs)
}

// Predict returns the predicted class per sample and, for binary problems,
// the signal probability used for ROC/AUC.
func (m *Model) Predict(ds *data.Encoded) (pred []int, signalScore []float64) {
	return m.net.Predict(ds)
}

// Evaluate returns test accuracy and (binary) AUC.
func (m *Model) Evaluate(ds *data.Encoded) (acc, auc float64) {
	return m.net.Evaluate(ds)
}

// Network exposes the underlying core network for advanced use (receptive-
// field inspection, custom readouts, visualization hooks).
func (m *Model) Network() *core.Network { return m.net }

// TrainSeconds reports accumulated wall-clock training time.
func (m *Model) TrainSeconds() float64 { return m.net.TrainTime.Seconds() }

// HiggsOptions configures LoadHiggs.
type HiggsOptions struct {
	// CSVPath optionally points at the real UCI HIGGS CSV; when empty a
	// synthetic sample is generated (see internal/higgs for the physics).
	CSVPath string
	// Events is the synthetic sample size (default 40000).
	Events int
	// PerClass bounds the balanced subset per class (default Events/4).
	PerClass int
	// TestFraction is the held-out share (default 0.25).
	TestFraction float64
	// Bins is the quantile-encoding bin count (default 10, as in §V).
	Bins int
	// Seed drives generation and splitting.
	Seed int64
}

// LoadHiggs runs the paper's full §V preprocessing pipeline: load (or
// synthesize) events, extract a balanced subset, split train/test, fit
// 10-quantile boundaries on the training split, and one-hot encode both.
// It returns the encoded splits plus the fitted encoder.
func LoadHiggs(opt HiggsOptions) (train, test *data.Encoded, enc *data.Encoder, err error) {
	if opt.Events <= 0 {
		opt.Events = 40000
	}
	if opt.TestFraction <= 0 || opt.TestFraction >= 1 {
		opt.TestFraction = 0.25
	}
	if opt.Bins <= 0 {
		opt.Bins = 10
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.PerClass <= 0 {
		opt.PerClass = opt.Events / 4
	}
	ds, err := higgs.Load(opt.CSVPath, 0, opt.Events, opt.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed + 7))
	balanced := ds.Balanced(opt.PerClass, rng)
	trainDS, testDS := balanced.Split(1-opt.TestFraction, rng)
	enc = data.FitEncoder(trainDS, opt.Bins)
	return enc.Transform(trainDS), enc.Transform(testDS), enc, nil
}

// Backends lists the registered compute backends.
func Backends() []string { return backend.Names() }

// SaveModel writes the trained model together with the fitted encoder as one
// self-contained bundle, the unit of deployment for cmd/streambrain-serve:
// a loaded bundle scores raw feature vectors end-to-end. Both readouts
// (pure BCPNN and the hybrid SGD softmax) round-trip.
func SaveModel(w io.Writer, m *Model, enc *data.Encoder) error {
	return serve.SaveBundle(w, m.net, enc)
}

// LoadModel reconstructs a model and its encoder from a SaveModel bundle.
// Only cfg.Backend and cfg.Workers are consulted (the backend is an
// execution concern, not model state); the hyperparameters come from the
// bundle itself.
func LoadModel(r io.Reader, cfg Config) (*Model, *data.Encoder, error) {
	if cfg.Backend == "" {
		cfg.Backend = "fused"
	}
	be, err := backend.New(cfg.Backend, cfg.Workers)
	if err != nil {
		return nil, nil, err
	}
	b, err := serve.LoadBundle(r, be)
	if err != nil {
		return nil, nil, err
	}
	cfg.Params = b.Net.Params()
	return &Model{net: b.Net, cfg: cfg}, b.Enc, nil
}
