// Quickstart: train a tiny BERT for real on the pure-Go engine, watch the
// loss fall, and inspect the rocProf-style kernel profile — the library's
// two substrates in one program.
package main

import (
	"fmt"
	"log"
	"os"

	"demystbert"
)

func main() {
	// 1. Real execution: a reduced-scale BERT (2 layers, d_model 64)
	//    pre-trained on synthetic data with masked-LM + NSP losses and
	//    LAMB updates.
	cfg := demystbert.TinyBERT()
	fmt.Printf("training a tiny BERT: %d layers, d_model %d, %d parameters\n",
		cfg.NumLayers, cfg.DModel, cfg.ParamCount())

	run, err := demystbert.MemorizeReal(cfg, 4, 32, 10, 42)
	if err != nil {
		log.Fatal(err)
	}
	for i, loss := range run.Losses {
		fmt.Printf("  iteration %d: loss %.4f\n", i+1, loss)
	}
	last, first := run.Losses[len(run.Losses)-1], run.Losses[0]
	fmt.Printf("loss fell %.1f%% over %d iterations on a fixed batch\n\n",
		100*(1-last/first), len(run.Losses))

	run.Profile.WriteReport(os.Stdout, "kernel profile (all iterations)", nil)

	// 2. Analytical model: the same iteration at BERT-Large scale on an
	//    MI100-class device — the paper's Ph1-B32-FP32 configuration.
	fmt.Println()
	r := demystbert.Characterize(demystbert.Phase1(demystbert.BERTLarge(), 32, demystbert.FP32), demystbert.MI100())
	fmt.Printf("BERT-Large Ph1-B32-FP32 modeled iteration: %v\n", r.Total)
	fmt.Printf("  GEMM share %.1f%%  |  LAMB share %.1f%%  |  attention ops %.1f%%\n",
		100*r.GEMMShare(), 100*r.LAMBShare(), 100*r.AttentionOpsShare())
}
