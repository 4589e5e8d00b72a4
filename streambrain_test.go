package streambrain_test

import (
	"bytes"
	"testing"

	"streambrain"
	"streambrain/internal/core"
)

func TestLoadHiggsDefaults(t *testing.T) {
	train, test, enc, err := streambrain.LoadHiggs(streambrain.HiggsOptions{
		Events: 4000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if train.Hypercolumns != 28 || train.UnitsPerHC != 10 {
		t.Fatalf("geometry %dx%d", train.Hypercolumns, train.UnitsPerHC)
	}
	if enc.Bins != 10 || len(enc.Cuts) != 28 {
		t.Fatalf("encoder %d bins, %d features", enc.Bins, len(enc.Cuts))
	}
	if test.Len() == 0 || train.Len() == 0 {
		t.Fatal("empty split")
	}
}

func TestNewModelValidation(t *testing.T) {
	if _, err := streambrain.NewModel(streambrain.Config{Backend: "tpu"}, 4, 2, 2); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := streambrain.NewModel(streambrain.Config{}, 0, 2, 2); err == nil {
		t.Fatal("zero hypercolumns accepted")
	}
	if _, err := streambrain.NewModel(streambrain.Config{}, 4, 2, 1); err == nil {
		t.Fatal("single class accepted")
	}
	bad := streambrain.DefaultParams()
	bad.Taupdt = -1
	if _, err := streambrain.NewModel(streambrain.Config{Params: bad}, 4, 2, 2); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestBackendsListed(t *testing.T) {
	names := streambrain.Backends()
	want := map[string]bool{"naive": true, "parallel": true, "fused": true, "gpusim": true}
	for _, n := range names {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("missing backends %v", want)
	}
}

// TestEndToEndFacade trains a small model through the public API only.
func TestEndToEndFacade(t *testing.T) {
	train, test, _, err := streambrain.LoadHiggs(streambrain.HiggsOptions{
		Events: 16000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	params := streambrain.DefaultParams()
	params.HCUs = 1
	params.MCUs = 300
	params.ReceptiveField = 0.4
	params.UnsupervisedEpochs = 6
	params.SupervisedEpochs = 6
	params.Seed = 2
	model, err := streambrain.NewModel(streambrain.Config{
		Backend: "parallel", Workers: 4, Params: params,
	}, train.Hypercolumns, train.UnitsPerHC, train.Classes)
	if err != nil {
		t.Fatal(err)
	}
	model.Fit(train)
	acc, auc := model.Evaluate(test)
	if acc < 0.54 || auc < 0.56 {
		t.Fatalf("facade model failed to learn: acc %.3f auc %.3f", acc, auc)
	}
	pred, score := model.Predict(test)
	if len(pred) != test.Len() || len(score) != test.Len() {
		t.Fatal("prediction length mismatch")
	}
	if model.TrainSeconds() <= 0 {
		t.Fatal("train time not recorded")
	}
}

// TestHybridFacade trains the BCPNN+SGD hybrid at the scale of
// TestFacadeFitEvaluate and holds it to the same accuracy bar. At 8000
// events and 1×100 MCUs the hybrid scores near chance (test accuracy 0.47–0.65
// over seeds 1–24), so an "above 0.5" check there passes or fails by seed.
func TestHybridFacade(t *testing.T) {
	train, test, _, err := streambrain.LoadHiggs(streambrain.HiggsOptions{
		Events: 16000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	params := streambrain.DefaultParams()
	params.HCUs = 1
	params.MCUs = 300
	params.ReceptiveField = 0.4
	params.UnsupervisedEpochs = 6
	params.SupervisedEpochs = 6
	params.Seed = 3
	model, err := streambrain.NewModel(streambrain.Config{
		Backend: "parallel", Workers: 4, Params: params, HybridSGD: true,
	}, train.Hypercolumns, train.UnitsPerHC, train.Classes)
	if err != nil {
		t.Fatal(err)
	}
	model.Fit(train)
	acc, _ := model.Evaluate(test)
	if acc < 0.54 {
		t.Fatalf("hybrid failed to learn: accuracy %.3f", acc)
	}
}

// TestSaveLoadModelFacade round-trips a hybrid model plus its encoder
// through the public bundle API and checks the reloaded pair scores raw
// events identically.
func TestSaveLoadModelFacade(t *testing.T) {
	train, test, enc, err := streambrain.LoadHiggs(streambrain.HiggsOptions{
		Events: 6000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	params := streambrain.DefaultParams()
	params.MCUs = 50
	params.UnsupervisedEpochs = 2
	params.SupervisedEpochs = 2
	params.Seed = 5
	model, err := streambrain.NewModel(streambrain.Config{
		Backend: "parallel", Params: params, HybridSGD: true,
	}, train.Hypercolumns, train.UnitsPerHC, train.Classes)
	if err != nil {
		t.Fatal(err)
	}
	model.Fit(train)

	var buf bytes.Buffer
	if err := streambrain.SaveModel(&buf, model, enc); err != nil {
		t.Fatal(err)
	}
	loaded, loadedEnc, err := streambrain.LoadModel(&buf, streambrain.Config{Backend: "naive"})
	if err != nil {
		t.Fatal(err)
	}
	if loadedEnc.Bins != enc.Bins || len(loadedEnc.Cuts) != len(enc.Cuts) {
		t.Fatalf("encoder changed: %d bins %d features", loadedEnc.Bins, len(loadedEnc.Cuts))
	}
	wantPred, wantScore := model.Predict(test)
	gotPred, gotScore := loaded.Predict(test)
	for i := range wantPred {
		if wantPred[i] != gotPred[i] {
			t.Fatalf("prediction changed at %d after bundle reload", i)
		}
		if d := wantScore[i] - gotScore[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("score changed at %d: %v vs %v", i, wantScore[i], gotScore[i])
		}
	}
}

func TestEpochHooksFire(t *testing.T) {
	train, _, _, err := streambrain.LoadHiggs(streambrain.HiggsOptions{
		Events: 3000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	params := streambrain.DefaultParams()
	params.MCUs = 20
	params.UnsupervisedEpochs = 3
	params.SupervisedEpochs = 0
	model, err := streambrain.NewModel(streambrain.Config{
		Backend: "naive", Params: params,
	}, train.Hypercolumns, train.UnitsPerHC, train.Classes)
	if err != nil {
		t.Fatal(err)
	}
	var epochs []int
	model.FitUnsupervised(train, 3, func(e int, l *core.HiddenLayer) {
		if l == nil || l.Units() != 20 {
			t.Errorf("hook got bad layer at epoch %d", e)
		}
		epochs = append(epochs, e)
	})
	if len(epochs) != 3 || epochs[0] != 0 || epochs[2] != 2 {
		t.Fatalf("hooks fired at %v, want [0 1 2]", epochs)
	}
}
