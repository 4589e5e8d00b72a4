// Command streambrain trains and evaluates a BCPNN network on the Higgs
// Boson classification task, reproducing the paper's workflow end to end:
//
//	streambrain -events 40000 -hcus 1 -mcus 3000 -rf 0.30 -hybrid
//
// With -higgs-csv pointing at the real UCI HIGGS file, the genuine dataset
// is used instead of the synthetic generator.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"streambrain"
	"streambrain/internal/backend"
	"streambrain/internal/core"
	"streambrain/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("streambrain: ")

	var (
		backendName = flag.String("backend", "fused", "compute backend: naive | parallel | fused | gpusim")
		workers     = flag.Int("workers", 0, "backend worker-team size (0 = all cores)")
		csvPath     = flag.String("higgs-csv", "", "path to the real UCI HIGGS CSV (empty = synthetic)")
		events      = flag.Int("events", 40000, "synthetic event count")
		bins        = flag.Int("bins", 10, "quantile one-hot bins per feature")
		hcus        = flag.Int("hcus", 1, "hidden hypercolumn units")
		mcus        = flag.Int("mcus", 3000, "minicolumn units per HCU")
		rf          = flag.Float64("rf", 0.30, "receptive-field fraction [0,1]")
		sparsity    = flag.Float64("sparsity", 0, "target structural sparsity [0,1): anneal each HCU's receptive field down to round((1-s)*Fi) active inputs with the prune/regrow schedule (0 = keep -rf fixed)")
		sparseC     = flag.Bool("sparse-compute", false, "run the block-sparse kernel path over the pruned mask (silent blocks skipped and frozen); default recomputes every block dense-masked")
		unsup       = flag.Int("unsup-epochs", 6, "unsupervised epochs")
		sup         = flag.Int("sup-epochs", 6, "supervised epochs")
		taupdt      = flag.Float64("taupdt", 0.012, "trace learning rate")
		batch       = flag.Int("batch", 128, "mini-batch size")
		hybrid      = flag.Bool("hybrid", false, "use the BCPNN+SGD hybrid readout")
		precision   = flag.String("precision", "float64", "compute precision: float64 | float32 (forward passes at half width, traces stay float64)")
		seed        = flag.Int64("seed", 1, "random seed")
		saveModel   = flag.String("save", "", "write the trained model state to this path")
		saveBundle  = flag.String("save-bundle", "", "write a serving bundle (model + encoder) to this path")
		loadModel   = flag.String("load", "", "load a model state instead of training")
	)
	flag.Parse()

	params := streambrain.DefaultParams()
	params.HCUs = *hcus
	params.MCUs = *mcus
	params.ReceptiveField = *rf
	params.UnsupervisedEpochs = *unsup
	params.SupervisedEpochs = *sup
	params.Taupdt = *taupdt
	params.BatchSize = *batch
	params.Seed = *seed
	params.Precision = streambrain.Precision(*precision)
	params.TargetSparsity = *sparsity
	params.SparseCompute = *sparseC
	if err := params.Validate(); err != nil {
		log.Fatal(err)
	}

	train, test, enc, err := streambrain.LoadHiggs(streambrain.HiggsOptions{
		CSVPath: *csvPath,
		Events:  *events,
		Bins:    *bins,
		Seed:    *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d train / %d test events, %d hypercolumns x %d bins\n",
		train.Len(), test.Len(), train.Hypercolumns, train.UnitsPerHC)

	be, err := backend.New(*backendName, *workers)
	if err != nil {
		log.Fatal(err)
	}
	if *loadModel != "" {
		f, err := os.Open(*loadModel)
		if err != nil {
			log.Fatal(err)
		}
		net, err := core.Load(f, be)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		acc, auc := net.Evaluate(test)
		fmt.Printf("loaded %s: test accuracy %.4f, AUC %.4f\n", *loadModel, acc, auc)
		return
	}

	model, err := streambrain.NewModel(streambrain.Config{
		Backend:   *backendName,
		Workers:   *workers,
		Params:    params,
		HybridSGD: *hybrid,
	}, train.Hypercolumns, train.UnitsPerHC, train.Classes)
	if err != nil {
		log.Fatal(err)
	}

	readout := "BCPNN"
	if *hybrid {
		readout = "BCPNN+SGD"
	}
	fmt.Printf("training %d HCUs x %d MCUs, RF %.0f%%, readout %s, backend %s\n",
		*hcus, *mcus, *rf*100, readout, *backendName)
	if *sparsity > 0 {
		regime := "dense-masked"
		if *sparseC {
			regime = "block-sparse"
		}
		fmt.Printf("structural sparsity: prune/regrow toward %.0f%% silent inputs per HCU, %s compute\n",
			*sparsity*100, regime)
	}
	model.Fit(train)
	acc, auc := model.Evaluate(test)
	fmt.Printf("test accuracy %.4f, AUC %.4f (train time %.1fs)\n",
		acc, auc, model.TrainSeconds())
	if *saveModel != "" {
		f, err := os.Create(*saveModel)
		if err != nil {
			log.Fatal(err)
		}
		if err := model.Network().Save(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("saved model state to %s\n", *saveModel)
	}
	if *saveBundle != "" {
		if err := serve.SaveBundleFile(*saveBundle, model.Network(), enc); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved serving bundle to %s (serve with: streambrain-serve -bundle %s)\n",
			*saveBundle, *saveBundle)
	}
	if acc < 0.5 {
		os.Exit(1)
	}
}
