package main

// The -large mode: one honest BERT-Large pre-training iteration executed
// for real on the pure-Go engine, scaled to laptop-class memory by the
// internal/memscale techniques — gradient accumulation down to a
// micro-batch, virtual optimizer-state sharding with the m/v shards
// spilled to a disk arena, and activation-checkpoint spill — all under a
// GOMEMLIMIT below the unspilled working set. The measured per-category
// step breakdown (GEMM / attention / LN+GeLU / optimizer / spill) is
// printed side-by-side with the calibrated analytical model's prediction
// for the same workload (the repo's stand-in for the paper's published
// BERT-Large breakdown; the DESIGN.md §15 table pairs both with the
// paper's numbers), and the measured peak RSS is cross-checked against
// the opgraph capacity model's scaled footprint.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"demystbert"
	"demystbert/internal/data"
	"demystbert/internal/kernels"
	"demystbert/internal/memscale"
	"demystbert/internal/model"
	"demystbert/internal/nn"
	"demystbert/internal/obs"
	"demystbert/internal/opgraph"
	"demystbert/internal/optim"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// largeFlags carries the -large mode's knobs.
type largeFlags struct {
	layers     int // 0 = the full 24; reduced values are the CI smoke
	b          int // global batch, reached via accumulation
	accum      int
	seq        int
	shards     int
	ckptEvery  int
	memlimitMB int
	spillDir   string
	jsonOut    string
}

// largeCategories is the fixed presentation order of the breakdown.
var largeCategories = []string{"GEMM", "Attention", "LN+GeLU", "Optimizer", "Spill", "Other"}

// categoryOf maps one profiled kernel event onto the -large breakdown.
// Spill kernels are recognized by name (they record under CatOther with
// a "spill_" prefix), everything else by its operator category.
func categoryOf(e profile.Event) string {
	if strings.HasPrefix(e.Kernel, "spill_") {
		return "Spill"
	}
	switch e.Category {
	case profile.CatLinear, profile.CatAttnBGEMM, profile.CatFCGEMM:
		return "GEMM"
	case profile.CatScaleMaskSM:
		return "Attention"
	case profile.CatGeLU, profile.CatDRRCLN:
		return "LN+GeLU"
	case profile.CatLAMBStage1, profile.CatLAMBStage2, profile.CatOptimizer:
		return "Optimizer"
	default:
		return "Other"
	}
}

// modeledShares returns the analytical model's category shares for the
// same workload, in largeCategories order (Spill is 0: the model assumes
// device-resident activations).
func modeledShares(w opgraph.Workload, dev demystbert.Device) map[string]float64 {
	r := demystbert.Characterize(w, dev)
	return map[string]float64{
		"GEMM": r.CategoryShare(profile.CatLinear) +
			r.CategoryShare(profile.CatAttnBGEMM) +
			r.CategoryShare(profile.CatFCGEMM),
		"Attention": r.CategoryShare(profile.CatScaleMaskSM),
		"LN+GeLU":   r.CategoryShare(profile.CatGeLU) + r.CategoryShare(profile.CatDRRCLN),
		"Optimizer": r.CategoryShare(profile.CatLAMBStage1) +
			r.CategoryShare(profile.CatLAMBStage2) +
			r.CategoryShare(profile.CatOptimizer),
		"Spill": 0,
		"Other": r.CategoryShare(profile.CatEmbedding) +
			r.CategoryShare(profile.CatOutput) +
			r.CategoryShare(profile.CatOther),
	}
}

// largeReport is the machine-readable breakdown -breakdown-json emits —
// the source of the DESIGN.md §15 measured column.
type largeReport struct {
	Layers int   `json:"layers"`
	DModel int   `json:"dmodel"`
	Heads  int   `json:"heads"`
	DFF    int   `json:"dff"`
	Vocab  int   `json:"vocab"`
	Params int64 `json:"params"`

	B          int   `json:"b"`
	MicroB     int   `json:"micro_b"`
	Accum      int   `json:"accum"`
	Seq        int   `json:"seq"`
	Shards     int   `json:"shards"`
	CkptEvery  int   `json:"ckpt_every"`
	MemLimitMB int64 `json:"memlimit_mb"`

	Loss   float64 `json:"loss"`
	WallMS float64 `json:"wall_ms"`
	FwdBwd float64 `json:"fwdbwd_ms"`
	OptMS  float64 `json:"opt_ms"`

	Categories []largeCat `json:"categories"`

	SpillWrittenBytes int64   `json:"spill_written_bytes"`
	SpillReadBytes    int64   `json:"spill_read_bytes"`
	SpillStallMS      float64 `json:"spill_stall_ms"`
	ShardSwaps        int64   `json:"shard_swaps"`

	PeakRSSBytes         int64 `json:"peak_rss_bytes"`
	ModeledResidentBytes int64 `json:"modeled_resident_bytes"`
	ModeledUnscaledBytes int64 `json:"modeled_unscaled_bytes"`
}

type largeCat struct {
	Name          string  `json:"name"`
	MeasuredMS    float64 `json:"measured_ms"`
	MeasuredShare float64 `json:"measured_share"`
	ModeledShare  float64 `json:"modeled_share"`
}

// peakRSSBytes reads the process's high-water resident set from the
// kernel (VmHWM), falling back to the Go runtime's OS-reserved total
// where /proc is unavailable.
func peakRSSBytes() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseInt(f[0], 10, 64); err == nil {
						return kb << 10
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

// runLarge executes the honest iteration and reports.
func runLarge(stdout io.Writer, lf *largeFlags, dev demystbert.Device) error {
	cfg := model.BERTLarge()
	if lf.layers > 0 {
		cfg.NumLayers = lf.layers
	}
	switch {
	case lf.accum < 1 || lf.b%lf.accum != 0:
		return fmt.Errorf("-accum %d must divide -large-b %d", lf.accum, lf.b)
	case lf.shards < 1:
		return fmt.Errorf("-shards must be >= 1, got %d", lf.shards)
	case lf.seq > cfg.MaxPos:
		return fmt.Errorf("-large-seq %d exceeds max position %d", lf.seq, cfg.MaxPos)
	}
	micro := lf.b / lf.accum

	w := opgraph.Workload{
		Cfg: cfg, B: lf.b, SeqLen: lf.seq,
		Precision: opgraph.FP32, CheckpointEvery: lf.ckptEvery,
	}
	full := opgraph.Footprint(w)
	scaled := opgraph.ScaledFootprint(w, opgraph.MemScale{
		MicroB: micro, Shards: lf.shards, SpillCkpts: true,
	})

	if lf.memlimitMB > 0 {
		limit := int64(lf.memlimitMB) << 20
		if limit >= full.Total() {
			fmt.Fprintf(stdout, "note: GOMEMLIMIT %d MiB is not below the unspilled working set (%.0f MiB)\n",
				lf.memlimitMB, mib(full.Total()))
		}
		debug.SetMemoryLimit(limit)
	}

	fmt.Fprintf(stdout, "BERT-Large for real: N=%d d_model=%d h=%d d_ff=%d vocab=%d (%.0fM params), gemm kernel %s\n",
		cfg.NumLayers, cfg.DModel, cfg.Heads, cfg.DFF, cfg.Vocab, float64(cfg.ParamCount())/1e6, kernels.ActiveKernel())
	fmt.Fprintf(stdout, "memory plan: B=%d as %d micro-batches of %d, n=%d, ckpt every %d layers (spilled), "+
		"%d virtual optimizer shards; modeled resident %.0f MiB vs %.0f MiB unspilled, GOMEMLIMIT %d MiB\n",
		lf.b, lf.accum, micro, lf.seq, lf.ckptEvery, lf.shards,
		mib(scaled.Total()), mib(full.Total()), lf.memlimitMB)

	m, err := model.New(cfg, 42)
	if err != nil {
		return err
	}
	m.CheckpointEvery = lf.ckptEvery
	arena, err := memscale.NewArena(lf.spillDir)
	if err != nil {
		return err
	}
	defer arena.Close()
	m.CkptSpill = memscale.NewActSpill(arena)

	opt := optim.NewLAMB(0.01)
	sh, err := memscale.NewSharded(opt, m.Params(), lf.shards)
	if err != nil {
		return err
	}
	sh.SetArena(arena)

	wBefore, rBefore, stBefore := memscale.SpillCounters()
	ctx := &nn.Ctx{Prof: profile.New(), RNG: tensor.NewRNG(43), Train: true}
	batch := data.NewGenerator(cfg.Vocab, 0.15, 44).Next(lf.b, lf.seq)

	start := time.Now()
	loss := m.StepAccum(ctx, batch, lf.accum)
	fwdbwd := time.Since(start)
	optStart := time.Now()
	if err := sh.Step(ctx, m.Params()); err != nil {
		return err
	}
	m.ZeroGrads()
	optDur := time.Since(optStart)
	wall := time.Since(start)

	fmt.Fprintf(stdout, "loss %.4f  wall %v (fwd+bwd %v, optimizer %v)\n",
		loss, wall.Round(time.Millisecond), fwdbwd.Round(time.Millisecond), optDur.Round(time.Millisecond))

	// Measured per-category breakdown over every profiled kernel of the
	// iteration, next to the calibrated analytical model's shares for the
	// same workload.
	events := ctx.Prof.Events()
	measured := make(map[string]time.Duration)
	var profTotal time.Duration
	for _, e := range events {
		measured[categoryOf(e)] += e.Duration
		profTotal += e.Duration
	}
	modeled := modeledShares(w, dev)

	rep := &largeReport{
		Layers: cfg.NumLayers, DModel: cfg.DModel, Heads: cfg.Heads,
		DFF: cfg.DFF, Vocab: cfg.Vocab, Params: int64(cfg.ParamCount()),
		B: lf.b, MicroB: micro, Accum: lf.accum, Seq: lf.seq,
		Shards: lf.shards, CkptEvery: lf.ckptEvery, MemLimitMB: int64(lf.memlimitMB),
		Loss:   loss,
		WallMS: float64(wall) / float64(time.Millisecond),
		FwdBwd: float64(fwdbwd) / float64(time.Millisecond),
		OptMS:  float64(optDur) / float64(time.Millisecond),
	}

	fmt.Fprintf(stdout, "%-12s %12s %10s %16s\n", "category", "measured", "share", "modeled(paper)")
	for _, name := range largeCategories {
		d := measured[name]
		share := 0.0
		if profTotal > 0 {
			share = float64(d) / float64(profTotal)
		}
		mod := "-"
		if !(name == "Spill" && modeled[name] == 0) {
			mod = fmt.Sprintf("%5.1f%%", 100*modeled[name])
		}
		fmt.Fprintf(stdout, "%-12s %12v %9.1f%% %16s\n",
			name, d.Round(time.Millisecond), 100*share, mod)
		rep.Categories = append(rep.Categories, largeCat{
			Name: name, MeasuredMS: float64(d) / float64(time.Millisecond),
			MeasuredShare: share, ModeledShare: modeled[name],
		})
	}

	wAfter, rAfter, stAfter := memscale.SpillCounters()
	rep.SpillWrittenBytes = wAfter - wBefore
	rep.SpillReadBytes = rAfter - rBefore
	rep.SpillStallMS = float64(stAfter-stBefore) / float64(time.Millisecond)
	if c, ok := obs.Default.Find("memscale_shard_swaps_total"); ok {
		rep.ShardSwaps = int64(c.Value)
	}
	fmt.Fprintf(stdout, "spill: wrote %.1f MiB, read %.1f MiB, stall %.0fms, %d shard swaps\n",
		mib(rep.SpillWrittenBytes), mib(rep.SpillReadBytes), rep.SpillStallMS, rep.ShardSwaps)

	// Capacity-model cross-check: the kernel's high-water RSS against the
	// opgraph scaled footprint. RSS additionally carries the Go runtime,
	// GEMM pack caches, and allocator slack, so the ratio is reported
	// rather than asserted.
	rep.PeakRSSBytes = peakRSSBytes()
	rep.ModeledResidentBytes = scaled.Total()
	rep.ModeledUnscaledBytes = full.Total()
	ratio := float64(rep.PeakRSSBytes) / float64(rep.ModeledResidentBytes)
	fmt.Fprintf(stdout, "peak RSS %.0f MiB vs modeled resident %.0f MiB (x%.2f); unscaled model %.0f MiB\n",
		mib(rep.PeakRSSBytes), mib(rep.ModeledResidentBytes), ratio, mib(rep.ModeledUnscaledBytes))

	if lf.jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(lf.jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", lf.jsonOut)
	}
	return nil
}
