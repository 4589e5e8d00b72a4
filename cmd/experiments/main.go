// Command experiments regenerates the paper's figures and the related-work
// table (DESIGN.md §4 maps experiment ids to figures):
//
//	experiments -fig 3          # Fig 3: HCU x MCU capacity sweep
//	experiments -fig 4          # Fig 4: receptive-field sweep
//	experiments -fig 5          # Fig 5: mask evolution montage (PNG + VTI)
//	experiments -fig 1          # Fig 1: MNIST receptive fields
//	experiments -fig 2          # Fig 2: in-situ visualization snapshots
//	experiments -fig 6          # §VI:  related-work AUC comparison
//	experiments -fig 7          # E7:   semi-supervised label efficiency
//	experiments -fig 8          # E8:   precision ablation (f64/f32/posit)
//	experiments -fig 9          # E9:   distributed rank-count invariance
//	experiments -fig 10         # E10:  structural-sparsity schedule
//	experiments -fig 0          # headline numbers (hybrid 1x3000)
//
// The -events / -repeats / -mcu-cap flags trade fidelity for runtime; the
// defaults are the reduced scale of DESIGN.md §1 and §4.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"streambrain/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		fig     = flag.Int("fig", 3, "figure to regenerate: 0 (headline), 1-5, 6 (related-work table), 7 (label efficiency), 8 (precision ablation), 9 (distributed invariance), 10 (sparsity schedule)")
		backend = flag.String("backend", "parallel", "compute backend")
		workers = flag.Int("workers", 0, "backend workers (0 = all cores)")
		events  = flag.Int("events", 30000, "synthetic HIGGS events")
		repeats = flag.Int("repeats", 3, "repetitions per configuration (paper: 10)")
		unsup   = flag.Int("unsup-epochs", 4, "unsupervised epochs per trial")
		sup     = flag.Int("sup-epochs", 4, "supervised epochs per trial")
		mcuCap  = flag.Int("mcu-cap", 0, "cap MCUs for the reduced-scale figure runs (0 = paper values)")
		outDir  = flag.String("out", "out", "artifact directory for figure outputs")
		seed    = flag.Int64("seed", 1, "random seed")
		live    = flag.Bool("live", false, "fig 2: serve a live view and block")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	cfg.Backend = *backend
	cfg.Workers = *workers
	cfg.Events = *events
	cfg.Repeats = *repeats
	cfg.UnsupEpochs = *unsup
	cfg.SupEpochs = *sup
	cfg.OutDir = *outDir
	cfg.Seed = *seed
	cfg.Out = os.Stdout

	var err error
	switch *fig {
	case 0:
		experiments.Fig3Headline(cfg)
	case 1:
		_, err = experiments.RunFig1(cfg, 0, 0, 0, 0)
	case 2:
		var res *experiments.Fig2Result
		res, err = experiments.RunFig2(cfg, *mcuCap, *live)
		if err == nil && *live {
			fmt.Printf("live view at http://%s/ — ctrl-c to stop\n", res.LiveAddr)
			select {}
		}
	case 3:
		mcus := experiments.Fig3MCUs
		if *mcuCap > 0 {
			mcus = capInts(mcus, *mcuCap)
		}
		experiments.RunFig3(cfg, nil, mcus)
	case 4:
		experiments.RunFig4(cfg, *mcuCap, nil)
	case 5:
		_, err = experiments.RunFig5(cfg, *mcuCap)
	case 6:
		experiments.RunBaselines(cfg, *mcuCap)
	case 7:
		experiments.RunLabelEfficiency(cfg, *mcuCap, nil)
	case 8:
		experiments.RunPrecision(cfg, *mcuCap)
	case 9:
		_, err = experiments.RunDistributed(cfg, *mcuCap)
	case 10:
		experiments.RunSparsity(cfg, *mcuCap)
	default:
		log.Fatalf("unknown figure %d (want 0-10)", *fig)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// capInts clamps each sweep value to the cap, deduplicating.
func capInts(xs []int, cap int) []int {
	var out []int
	seen := map[int]bool{}
	for _, x := range xs {
		if x > cap {
			x = cap
		}
		if !seen[x] {
			out = append(out, x)
			seen[x] = true
		}
	}
	return out
}
