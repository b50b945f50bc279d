package model

import (
	"runtime"
	"testing"

	"demystbert/internal/data"
	"demystbert/internal/nn"
	"demystbert/internal/optim"
	"demystbert/internal/tensor"
)

// TestTrainingStepAllocationPin pins what a warmed training step costs the
// allocator: Forward, Backward, the LAMB update and ZeroGrads draw every
// activation from the context's workspace, reuse each slot's tensor header
// while shapes repeat, dispatch every kernel through pooled bodies, and
// clear the gradients in one pooled region — so the step allocates nothing,
// and its bytes stay far below one [B·n, d] activation. A garbage
// collection just before the step, which bench/ runs before every measured
// step, costs it nothing either: the kernels' pooled objects live in free
// lists that a collection leaves alone. It covers a pre-training and a
// fine-tuning step; serving's forward has its own pin (internal/serve).
func TestTrainingStepAllocationPin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const b, n = 4, 32
	cfg := Tiny()
	activation := uint64(b * n * cfg.DModel * 4)

	m, err := New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	gen := data.NewGenerator(cfg.Vocab, 0.15, 2)
	batch, qa := gen.Next(b, n), gen.NextQA(b, n)
	f := NewFineTuner(m, 4)
	steps := []struct {
		name string
		run  func(ctx *nn.Ctx, opt *optim.LAMB)
	}{
		{"pre-training", func(ctx *nn.Ctx, opt *optim.LAMB) {
			m.Forward(ctx, batch)
			m.Backward(ctx)
			opt.Step(ctx, m.Params())
			m.ZeroGrads()
		}},
		{"fine-tuning", func(ctx *nn.Ctx, opt *optim.LAMB) {
			f.Forward(ctx, qa)
			f.Backward(ctx)
			opt.Step(ctx, f.Params())
			f.ZeroGrads()
		}},
	}
	for _, s := range steps {
		// No profiler: recording an event appends to a slice.
		ctx := &nn.Ctx{RNG: tensor.NewRNG(9), Train: true}
		opt := optim.NewLAMB(0.01)
		step := func() { s.run(ctx, opt) }
		step()
		step()
		if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
			t.Errorf("%s: a warmed step allocates %v objects, want 0", s.name, allocs)
		}
		// The step itself allocates nothing after a collection either,
		// but the collection wakes the runtime's own goroutines, and now
		// and then one of them allocates inside the measured window (the
		// background scavenger growing the timer heap as it re-arms its
		// timer): one object in one of a few hundred steps. A kernel pool
		// that the collection emptied would cost at least one object on
		// every step.
		if allocs := allocsAfterCollection(10, step); allocs >= 1 {
			t.Errorf("%s: a warmed step right after a collection allocates %v objects, want under 1", s.name, allocs)
		}
		if per := bytesPerRun(10, step); per > activation/8 {
			t.Errorf("%s: a warmed step allocates %d bytes, want at most %d (an eighth of one %d-byte activation)",
				s.name, per, activation/8, activation)
		}
	}
}

// bytesPerRun is the heap bytes f allocates per run after one warm run,
// at full width: every region whose chunks draw kernel scratch reserves
// what its concurrent chunks hold before it forks (reserveScratch in
// internal/kernels), so the free lists reach their high-water mark in the
// warm run however the scheduler overlaps the chunks of later ones.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// allocsAfterCollection is testing.AllocsPerRun with runtime.GC() before
// every run, the mallocs counted around f only.
func allocsAfterCollection(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	var mallocs uint64
	for i := 0; i < runs; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	return float64(mallocs) / float64(runs)
}
