// Package experiments contains the per-figure reproduction harnesses: every
// figure of the paper (and the §VI related-work comparison, which functions
// as a table) has a Run function that regenerates the corresponding rows or
// artifacts. DESIGN.md §4 maps experiment ids to these runners, which print
// paper-vs-measured rows.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"streambrain/internal/backend"
	"streambrain/internal/core"
	"streambrain/internal/data"
	"streambrain/internal/higgs"
	"streambrain/internal/metrics"
	"streambrain/internal/sgd"
)

// Config is shared by all experiment runners.
type Config struct {
	// Backend and Workers select the compute backend.
	Backend string
	Workers int
	// Events is the synthetic HIGGS sample size before balancing/splitting.
	Events int
	// TestFraction is the held-out share of the balanced subset.
	TestFraction float64
	// Bins is the quantile-encoding bin count (paper: 10).
	Bins int
	// Repeats is the number of repetitions averaged per configuration
	// (paper: 10; the default harness scale uses fewer — see DESIGN.md §1).
	Repeats int
	// UnsupEpochs/SupEpochs are the phase lengths per trial.
	UnsupEpochs, SupEpochs int
	// Seed drives everything.
	Seed int64
	// Out receives the human-readable table rows; nil discards them.
	Out io.Writer
	// OutDir receives artifact files (VTI, PNG) for the figure runners.
	OutDir string
}

// DefaultConfig returns the reduced-scale defaults of DESIGN.md §4 (the
// paper trains on an A100 with up to 11M events and 10
// repetitions; see DESIGN.md §1 for the scaling substitution).
func DefaultConfig() Config {
	return Config{
		Backend:      "parallel",
		Workers:      0,
		Events:       30000,
		TestFraction: 0.25,
		Bins:         10,
		Repeats:      3,
		UnsupEpochs:  4,
		SupEpochs:    4,
		Seed:         1,
		OutDir:       "out",
	}
}

// printf writes a formatted row to cfg.Out when set.
func (cfg Config) printf(format string, args ...any) {
	if cfg.Out != nil {
		fmt.Fprintf(cfg.Out, format, args...)
	}
}

// HiggsSplits holds the preprocessed HIGGS data shared across trials: raw
// splits for the dense baselines plus the quantile one-hot encodings.
type HiggsSplits struct {
	TrainRaw, TestRaw *data.Dataset
	Train, Test       *data.Encoded
	Enc               *data.Encoder
}

// PrepareHiggs runs the §V preprocessing once: synthesize (or later: load)
// events, balance, split, fit the encoder on the training split, encode.
func PrepareHiggs(cfg Config) *HiggsSplits {
	ds := higgs.Generate(cfg.Events, 0.5, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	balanced := ds.Balanced(cfg.Events/2, rng)
	trainDS, testDS := balanced.Split(1-cfg.TestFraction, rng)
	enc := data.FitEncoder(trainDS, cfg.Bins)
	return &HiggsSplits{
		TrainRaw: trainDS,
		TestRaw:  testDS,
		Train:    enc.Transform(trainDS),
		Test:     enc.Transform(testDS),
		Enc:      enc,
	}
}

// TrialResult is one trained-network measurement. Scores holds the
// per-test-sample signal probabilities (consumed by the AMS column of E6).
type TrialResult struct {
	Acc, AUC     float64
	TrainSeconds float64
	Scores       []float64
}

// RunTrial trains one BCPNN network (optionally hybrid) on prepared splits
// and returns its test metrics.
func RunTrial(cfg Config, splits *HiggsSplits, p core.Params, hybrid bool) TrialResult {
	be := backend.MustNew(cfg.Backend, cfg.Workers)
	net := core.NewNetwork(be, splits.Train.Hypercolumns, splits.Train.UnitsPerHC,
		splits.Train.Classes, p)
	if hybrid {
		rng := rand.New(rand.NewSource(p.Seed + 1))
		net.SetReadout(sgd.NewSoftmax(net.Hidden.Units(), splits.Train.Classes,
			sgd.DefaultConfig(), rng))
	}
	return measureNetwork(cfg, splits, net)
}

// measureNetwork runs both training phases plus threshold calibration on an
// already-constructed network and evaluates it — shared by RunTrial and the
// harnesses (E8 precision) that need a custom backend instance.
func measureNetwork(cfg Config, splits *HiggsSplits, net *core.Network) TrialResult {
	start := time.Now()
	net.TrainUnsupervised(splits.Train, cfg.UnsupEpochs)
	net.TrainSupervised(splits.Train, cfg.SupEpochs)
	net.CalibrateThreshold(splits.Train)
	elapsed := time.Since(start).Seconds()
	pred, scores := net.Predict(splits.Test)
	acc := metrics.Accuracy(pred, splits.Test.Y)
	auc := metrics.AUC(scores, splits.Test.Y)
	return TrialResult{Acc: acc, AUC: auc, TrainSeconds: elapsed, Scores: scores}
}

// Repeat runs a configuration cfg.Repeats times with distinct seeds and
// summarizes — the paper's "we train each experiment 10 times and take the
// average" protocol (§V-A).
func Repeat(cfg Config, splits *HiggsSplits, p core.Params, hybrid bool) (acc, auc, secs metrics.Summary) {
	var accs, aucs, times []float64
	for r := 0; r < cfg.Repeats; r++ {
		p.Seed = cfg.Seed + int64(1000*r)
		res := RunTrial(cfg, splits, p, hybrid)
		accs = append(accs, res.Acc)
		aucs = append(aucs, res.AUC)
		times = append(times, res.TrainSeconds)
	}
	return metrics.Summarize(accs), metrics.Summarize(aucs), metrics.Summarize(times)
}
