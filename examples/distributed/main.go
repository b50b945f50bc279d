// Distributed: reproduce Fig. 11's multi-GPU profiles (data parallelism
// with and without overlap, 2-way and 8-way tensor slicing), then extend
// the study with scaling sweeps the paper discusses: exposed communication
// versus tensor-slicing ways, and the effect of hypothetical interconnect
// improvements on the 8-way configuration.
package main

import (
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"demystbert"
	"demystbert/internal/data"
	"demystbert/internal/dist"
	"demystbert/internal/distnet"
	"demystbert/internal/model"
	"demystbert/internal/nn"
	"demystbert/internal/opgraph"
	"demystbert/internal/perfmodel"
	"demystbert/internal/tensor"
)

func main() {
	cfg := demystbert.BERTLarge()
	dev := demystbert.MI100()

	// The paper's five bars.
	if err := demystbert.WriteArtifact(os.Stdout, "fig11", cfg, dev); err != nil {
		log.Fatal(err)
	}

	// Extension 1: exposed communication vs tensor-slicing ways
	// (Takeaway 13's trend, swept).
	fmt.Println("tensor slicing: exposed communication vs ways (B=32, FP32)")
	fmt.Println("===========================================================")
	w := demystbert.Phase1(cfg, 32, demystbert.FP32)
	for _, m := range []int{2, 4, 8, 16} {
		p := dist.TensorSlicing(fmt.Sprintf("TS-%d", m), w, m, dev)
		fmt.Printf("  %2d-way: total %8v  comm %5.1f%%  LAMB %4.1f%%\n",
			m, p.Total.Round(time.Millisecond), 100*p.CommShare(), 100*p.Share(opgraph.ClassLAMB))
	}

	// Extension 2: data parallelism at growing device counts, with and
	// without overlap.
	fmt.Println("\ndata parallelism: device-count scaling (B=16, FP32)")
	fmt.Println("===================================================")
	r := perfmodel.Run(opgraph.Build(demystbert.Phase1(cfg, 16, demystbert.FP32)), dev)
	for _, d := range []int{8, 32, 128, 512} {
		no := dist.DataParallel("no-overlap", r, d, false)
		ov := dist.DataParallel("overlap", r, d, true)
		fmt.Printf("  D=%3d: no-overlap comm %5.1f%%  |  overlapped exposed comm %4.1f%% (hidden %v)\n",
			d, 100*no.CommShare(), 100*ov.CommShare(), ov.HiddenComm.Round(time.Millisecond))
	}

	// Extension 3: REAL data-parallel training at engine scale — three
	// ranks in one process, joined over loopback TCP, a real ring
	// AllReduce of bucketed gradients, ranks verified bit-identical after
	// every step (Section 2.5's semantics executed).
	fmt.Println("\nreal data-parallel training (3 loopback ranks, tiny BERT, TCP ring AllReduce)")
	fmt.Println("==============================================================================")
	tiny := demystbert.TinyBERT()
	tiny.DropProb = 0
	groups, err := distnet.JoinLoopback(3, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	trainers := make([]*distnet.Trainer, len(groups))
	for r, g := range groups {
		m, err := model.New(tiny, 42)
		if err != nil {
			log.Fatal(err)
		}
		trainers[r] = distnet.NewTrainer(g, m, 42, 32*1024, true, 0.01)
	}
	gen := data.NewGenerator(tiny.Vocab, 0.15, 43)
	shards := []*data.Batch{gen.Next(2, 16), gen.Next(2, 16), gen.Next(2, 16)}
	losses := make([]float64, len(groups))
	var txBefore int64
	for step := 0; step < 4; step++ {
		txBefore, _ = groups[0].WireBytes()
		onEveryRank(len(groups), func(r int) (err error) {
			losses[r], _, err = trainers[r].Step(shards[r])
			return err
		})
		fmt.Printf("  step %d: losses %.4f %.4f %.4f  ranks-in-sync=%v\n",
			step+1, losses[0], losses[1], losses[2], inSync(trainers))
	}
	tx, _ := groups[0].WireBytes()
	fmt.Printf("  gradient sync: %.2f MB sent by rank 0 per step (ring AllReduce over TCP)\n",
		float64(tx-txBefore)/1e6)
	for _, g := range groups {
		g.Close()
	}

	// Extension 3b: REAL tensor slicing — an encoder layer split 2-way
	// Megatron-style across two loopback ranks, its four per-layer
	// AllReduces run on the ring, and the output verified against the
	// unsliced layer (Fig. 10 made runnable).
	fmt.Println("\nreal tensor slicing (2-way Megatron split of one encoder layer)")
	fmt.Println("===============================================================")
	rng := tensor.NewRNG(7)
	refLayer := nn.NewEncoderLayer("ref", 64, 4, 256, 0, rng)
	xIn := tensor.New(8*16, 64)
	xIn.FillUniform(rng, -1, 1)
	want := refLayer.Forward(&nn.Ctx{RNG: tensor.NewRNG(1), Train: true}, xIn, 8, 16, nil)
	groups, err = distnet.JoinLoopback(2, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	outs := make([]*tensor.Tensor, len(groups))
	onEveryRank(len(groups), func(r int) error {
		sliced, err := distnet.NewSlicedLayer(groups[r], refLayer)
		if err != nil {
			return err
		}
		outs[r], err = sliced.Forward(&nn.Ctx{RNG: tensor.NewRNG(1), Train: true}, xIn, 8, 16)
		return err
	})
	for _, g := range groups {
		g.Close()
	}
	var maxDiff float64
	for i := range want.Data() {
		d := float64(want.Data()[i] - outs[0].Data()[i])
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("  sliced vs unsliced output: max |diff| = %.2e (numerical parity)\n", maxDiff)

	// Extension 4: hypothetical interconnects for 8-way TS (Section 5.1's
	// projection capability; in-network processing motivation of 6.2.3).
	fmt.Println("\n8-way tensor slicing under faster interconnects (B=64, FP32)")
	fmt.Println("=============================================================")
	w64 := demystbert.Phase1(cfg, 64, demystbert.FP32)
	for _, x := range []float64{1, 2, 4, 8} {
		p := dist.TensorSlicing("TS-8", w64, 8, dev.Scale(1, 1, x))
		fmt.Printf("  link x%-3.0f: total %8v  comm %5.1f%%\n",
			x, p.Total.Round(time.Millisecond), 100*p.CommShare())
	}
}

// onEveryRank runs f once per rank, concurrently, and exits on any error.
func onEveryRank(world int, f func(r int) error) {
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = f(r)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			log.Fatalf("rank %d: %v", r, err)
		}
	}
}

// inSync reports whether every rank's parameters are bit-identical to
// rank 0's.
func inSync(trainers []*distnet.Trainer) bool {
	ref := trainers[0].M.Params()
	for _, t := range trainers[1:] {
		for i, p := range t.M.Params() {
			for j, v := range p.Value.Data() {
				if v != ref[i].Value.Data()[j] {
					return false
				}
			}
		}
	}
	return true
}
