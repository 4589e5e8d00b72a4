package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streambrain/internal/core"
)

// tinyConfig keeps harness tests fast: small sample, one repeat, few epochs.
func tinyConfig(t *testing.T) Config {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Events = 3000
	cfg.Repeats = 1
	cfg.UnsupEpochs = 2
	cfg.SupEpochs = 2
	cfg.Workers = 4
	cfg.OutDir = t.TempDir()
	return cfg
}

func TestPrepareHiggsPipeline(t *testing.T) {
	cfg := tinyConfig(t)
	splits := PrepareHiggs(cfg)
	if splits.Train.Hypercolumns != 28 || splits.Train.UnitsPerHC != cfg.Bins {
		t.Fatalf("encoded geometry %dx%d", splits.Train.Hypercolumns, splits.Train.UnitsPerHC)
	}
	// Balanced subset: both splits must be near 50/50.
	frac := func(y []int) float64 {
		pos := 0
		for _, v := range y {
			pos += v
		}
		return float64(pos) / float64(len(y))
	}
	if f := frac(splits.Train.Y); f < 0.45 || f > 0.55 {
		t.Fatalf("train signal fraction %.3f", f)
	}
	if f := frac(splits.Test.Y); f < 0.45 || f > 0.55 {
		t.Fatalf("test signal fraction %.3f", f)
	}
	// Train/test sizes follow TestFraction.
	total := splits.Train.Len() + splits.Test.Len()
	got := float64(splits.Test.Len()) / float64(total)
	if got < 0.2 || got > 0.3 {
		t.Fatalf("test fraction %.3f, want ≈0.25", got)
	}
}

// TestBCPNNBeatsChanceOnHiggs is the headline integration test: the full
// pipeline must deliver accuracy and AUC meaningfully above chance on the
// synthetic Higgs task, reproducing the paper's central claim that BCPNN
// learns this dataset.
func TestBCPNNBeatsChanceOnHiggs(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.Events = 16000
	cfg.UnsupEpochs = 6
	cfg.SupEpochs = 6
	cfg.Workers = 8
	splits := PrepareHiggs(cfg)
	p := core.DefaultParams()
	p.HCUs = 1
	p.MCUs = 300
	p.ReceptiveField = 0.4
	p.UnsupervisedEpochs = cfg.UnsupEpochs
	p.SupervisedEpochs = cfg.SupEpochs
	res := RunTrial(cfg, splits, p, false)
	if res.Acc < 0.55 {
		t.Fatalf("BCPNN accuracy %.3f barely above chance", res.Acc)
	}
	if res.AUC < 0.58 {
		t.Fatalf("BCPNN AUC %.3f barely above chance", res.AUC)
	}
	if res.TrainSeconds <= 0 {
		t.Fatal("train time not measured")
	}
}

func TestRunFig3ReducedGrid(t *testing.T) {
	cfg := tinyConfig(t)
	var buf bytes.Buffer
	cfg.Out = &buf
	rows := RunFig3(cfg, []int{1, 2}, []int{20, 60})
	if len(rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(rows))
	}
	for _, r := range rows {
		// At this deliberately tiny scale the model can land a hair below
		// chance on the held-out split; the assertion only guards against
		// harness plumbing bugs (swapped labels, empty predictions).
		if r.Acc.Mean < 0.45 || r.Acc.Mean > 1 {
			t.Fatalf("row %+v has implausible accuracy", r)
		}
		if r.TrainSeconds.Mean <= 0 {
			t.Fatalf("row %+v missing train time", r)
		}
	}
	if !strings.Contains(buf.String(), "Fig 3") {
		t.Fatal("missing table header")
	}
}

// TestFig3CapacityShape: larger MCU counts must not hurt accuracy much —
// the paper's "higher capacity gives higher performance" trend at the
// single-HCU point.
func TestFig3CapacityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity shape needs full-scale trials")
	}
	cfg := tinyConfig(t)
	cfg.Events = 24000
	cfg.Repeats = 3
	cfg.UnsupEpochs = 5
	cfg.SupEpochs = 5
	cfg.Workers = 0
	rows := RunFig3(cfg, []int{1}, []int{30, 1000})
	small, large := rows[0], rows[1]
	// Measured curve (E1, DESIGN.md §4): M=30 ≈ 0.58, M=1000 ≈ 0.65;
	// the margin tolerates seed noise while still catching a broken trend.
	if large.Acc.Mean <= small.Acc.Mean-0.01 {
		t.Fatalf("capacity 1000 (%.3f) below capacity 30 (%.3f)",
			large.Acc.Mean, small.Acc.Mean)
	}
}

func TestRunFig4ReducedSweep(t *testing.T) {
	cfg := tinyConfig(t)
	var buf bytes.Buffer
	cfg.Out = &buf
	rows := RunFig4(cfg, 40, []float64{0.05, 0.4})
	if len(rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(rows))
	}
	if rows[0].RF != 0.05 || rows[1].RF != 0.4 {
		t.Fatalf("rows out of order: %+v", rows)
	}
}

func TestRunFig5ProducesArtifacts(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.UnsupEpochs = 1
	results, err := RunFig5(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 20 {
		t.Fatalf("expected 20 RF points, got %d", len(results))
	}
	// Mask activity must grow with RF: count active at 5% vs 95%.
	countActive := func(r Fig5Result) int {
		n := 0
		for _, v := range r.Field.Data {
			if v > 0 {
				n++
			}
		}
		return n
	}
	if countActive(results[1]) >= countActive(results[19]) {
		t.Fatalf("mask at RF=5%% (%d) not smaller than at RF=95%% (%d)",
			countActive(results[1]), countActive(results[19]))
	}
	if countActive(results[0]) != 0 {
		t.Fatalf("RF=0%% mask has %d active entries", countActive(results[0]))
	}
	for _, name := range []string{"fig5_masks.png", "fig5_masks_0000.vti"} {
		if _, err := os.Stat(filepath.Join(cfg.OutDir, name)); err != nil {
			t.Fatalf("missing artifact %s: %v", name, err)
		}
	}
}

func TestRunFig1CenterConcentration(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.UnsupEpochs = 15
	res, err := RunFig1(cfg, 2000, 3, 20, 0.06)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fields) != 3 {
		t.Fatalf("expected 3 fields, got %d", len(res.Fields))
	}
	// The central 14×14 window is 25% of the area; fields must concentrate
	// well above that after structural plasticity.
	for h, frac := range res.CenterFraction {
		if frac < 0.5 {
			t.Fatalf("HCU %d center fraction %.2f; field did not migrate to center", h, frac)
		}
	}
	if _, err := os.Stat(filepath.Join(cfg.OutDir, "fig1_fields.png")); err != nil {
		t.Fatalf("missing artifact: %v", err)
	}
}

func TestRunFig2WritesEpochSnapshots(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.UnsupEpochs = 3
	res, err := RunFig2(cfg, 20, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.VTIFiles) != 3 || len(res.PNGFiles) != 3 {
		t.Fatalf("expected 3 VTI and 3 PNG snapshots, got %d/%d",
			len(res.VTIFiles), len(res.PNGFiles))
	}
}

func TestRunBaselinesOrdering(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.Events = 16000
	cfg.UnsupEpochs = 6
	cfg.SupEpochs = 6
	cfg.Workers = 8
	var buf bytes.Buffer
	cfg.Out = &buf
	rows := RunBaselines(cfg, 400)
	if len(rows) != 5 {
		t.Fatalf("expected 5 rows, got %d", len(rows))
	}
	byName := map[string]BaselineRow{}
	for _, r := range rows {
		byName[r.Model] = r
	}
	// Every model must beat chance.
	for name, r := range byName {
		if r.AUC < 0.55 {
			t.Fatalf("%s AUC %.3f near chance", name, r.AUC)
		}
	}
	// The paper's ordering: strong dense baselines above BCPNN.
	if byName["BDT (boosted trees)"].AUC <= byName["BCPNN"].AUC-0.02 {
		t.Fatalf("BDT (%.3f) should not trail BCPNN (%.3f)",
			byName["BDT (boosted trees)"].AUC, byName["BCPNN"].AUC)
	}
}

func TestRunLabelEfficiencyShape(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.Events = 12000
	cfg.UnsupEpochs = 4
	cfg.SupEpochs = 4
	cfg.Workers = 8
	var buf bytes.Buffer
	cfg.Out = &buf
	rows := RunLabelEfficiency(cfg, 200, []float64{0.05, 1.0})
	if len(rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(rows))
	}
	if rows[0].Labeled >= rows[1].Labeled {
		t.Fatalf("label counts not increasing: %+v", rows)
	}
	for _, r := range rows {
		if r.BCPNNAUC < 0.5 || r.MLPAUC < 0.5 {
			t.Fatalf("model below chance: %+v", r)
		}
	}
	if !strings.Contains(buf.String(), "label efficiency") {
		t.Fatal("missing header")
	}
}

// TestPrecisionAblationTolerance is the acceptance check for the paper's
// reduced-precision claim at test scale: the float32 compute path must land
// within 0.005 AUC of the float64 reference on the same splits and seeds,
// and posit16 storage quantization must stay close as well (posit8 is
// reported but unchecked — the paper's own aggressive low end).
func TestPrecisionAblationTolerance(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.Events = 12000
	cfg.UnsupEpochs = 3
	cfg.SupEpochs = 3
	res := RunPrecision(cfg, 100)
	if len(res.Rows) != 7 {
		t.Fatalf("expected 7 precision×backend rows, got %d", len(res.Rows))
	}
	if ref := res.Rows[0].AUC.Mean; ref < 0.55 {
		t.Fatalf("float64 reference failed to learn: AUC %.3f", ref)
	}
	if d := res.DeltaAUC("float32"); d < -0.005 || d > 0.005 {
		t.Fatalf("float32 AUC delta %.4f outside ±0.005", d)
	}
	if d := res.DeltaAUC("posit16"); d < -0.02 || d > 0.02 {
		t.Fatalf("posit16 AUC delta %.4f outside ±0.02", d)
	}
	// The fused backend rows are the accuracy half of the whole-layer
	// offload claim (DESIGN.md §14). At float64 the fused LayerStep is
	// bit-identical to the composed kernel sequence, so its delta — and
	// gpusim's, which dispatches the same fused step — must be exactly
	// zero, not merely small. The float32 fused row trains the hidden layer
	// at float64 too and runs only its forward passes outside LayerStep at
	// float32 (DESIGN.md §9), so it gets the paper tolerance.
	for _, name := range []string{"float64/fused", "float64/gpusim"} {
		if d := res.DeltaAUC(name); d != 0 {
			t.Fatalf("%s AUC delta %g, want exactly 0 (fused f64 is bit-exact)", name, d)
		}
	}
	if d := res.DeltaAUC("float32/fused"); d < -0.005 || d > 0.005 {
		t.Fatalf("float32/fused AUC delta %.4f outside ±0.005", d)
	}
}

// TestSparsityScheduleTolerance is the acceptance check for the block-sparse
// compute claim (E10, DESIGN.md §15) at test scale: running the 80%-sparsity
// prune/regrow schedule on the block-sparse kernels must land within 0.01
// AUC of the same schedule on the dense-masked kernels (the compute-regime
// equivalence bound), the realized sparsity must hit the target, and the
// trajectory must anneal monotonically.
func TestSparsityScheduleTolerance(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.Events = 12000
	cfg.UnsupEpochs = 4
	cfg.SupEpochs = 4
	var buf bytes.Buffer
	cfg.Out = &buf
	res := RunSparsity(cfg, 100)
	if len(res.Rows) != 5 {
		t.Fatalf("expected 5 sparsity rows, got %d", len(res.Rows))
	}
	if ref := res.Rows[0].AUC.Mean; ref < 0.55 {
		t.Fatalf("dense reference failed to learn: AUC %.3f", ref)
	}
	sp, tw := res.Row("sparse-0.80"), res.Row("dense-sched-0.80")
	if sp == nil || tw == nil {
		t.Fatal("missing 0.80-target rows")
	}
	if tw.AUC.Mean < 0.55 {
		t.Fatalf("dense-compute schedule twin failed to learn: AUC %.3f", tw.AUC.Mean)
	}
	if d := sp.AUC.Mean - tw.AUC.Mean; d < -0.01 || d > 0.01 {
		t.Fatalf("80%% sparse AUC %.4f vs dense-compute twin %.4f: regime delta %.4f outside ±0.01",
			sp.AUC.Mean, tw.AUC.Mean, d)
	}
	if sp.K != tw.K {
		t.Fatalf("twins ended at different K: sparse %d, dense %d", sp.K, tw.K)
	}
	// The schedule must actually realize the target: K = round(0.2·Fi).
	if sp.Final < 0.75 || sp.Final > 0.85 {
		t.Fatalf("realized sparsity %.2f, want ≈0.80 (K=%d)", sp.Final, sp.K)
	}
	// Trajectory: one point per unsupervised epoch, never densifying.
	if len(sp.Trajectory) != cfg.UnsupEpochs {
		t.Fatalf("trajectory has %d points, want %d", len(sp.Trajectory), cfg.UnsupEpochs)
	}
	for i := 1; i < len(sp.Trajectory); i++ {
		if sp.Trajectory[i] < sp.Trajectory[i-1] {
			t.Fatalf("sparsity trajectory densified at epoch %d: %v", i, sp.Trajectory)
		}
	}
	if last := sp.Trajectory[len(sp.Trajectory)-1]; last != sp.Final {
		t.Fatalf("trajectory end %.3f disagrees with final sparsity %.3f", last, sp.Final)
	}
	if !strings.Contains(buf.String(), "E10") {
		t.Fatal("missing table header")
	}
}

// TestDistributedInvarianceTolerance is the acceptance check for the
// paper's data-parallel claim at test scale (E9): training on 4 ranks over
// the real TCP fabric must land within 0.005 AUC of the 1-rank run — the
// rank-count invariance §II-B argues for, surviving the process boundary.
// The tcp rows must further match their chan twins exactly: the wire format
// round-trips float64 bit-exactly, so the transport cannot move the math.
func TestDistributedInvarianceTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale distributed trials")
	}
	cfg := tinyConfig(t)
	cfg.Events = 24000
	cfg.UnsupEpochs = 4
	cfg.SupEpochs = 4
	cfg.Workers = 0
	res, err := RunDistributed(cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("expected 5 rows, got %d", len(res.Rows))
	}
	ref := res.Row(1, "chan")
	if ref == nil || ref.AUC < 0.6 {
		t.Fatalf("1-rank reference failed to learn: %+v", ref)
	}
	tcp4 := res.Row(4, "tcp")
	if tcp4 == nil {
		t.Fatal("missing 4-rank tcp row")
	}
	if d := tcp4.DeltaAUC; d < -0.005 || d > 0.005 {
		t.Fatalf("4-rank tcp AUC delta %.4f outside ±0.005", d)
	}
	for _, ranks := range []int{2, 4} {
		ch, tc := res.Row(ranks, "chan"), res.Row(ranks, "tcp")
		if ch.AUC != tc.AUC || ch.Acc != tc.Acc {
			t.Fatalf("%d-rank tcp (%.6f/%.6f) diverged from chan (%.6f/%.6f): "+
				"the transport moved the math", ranks, tc.Acc, tc.AUC, ch.Acc, ch.AUC)
		}
	}
}
