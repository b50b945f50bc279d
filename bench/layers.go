package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"demystbert/internal/device"
	"demystbert/internal/distnet"
	"demystbert/internal/kernels"
	"demystbert/internal/nn"
	"demystbert/internal/opgraph"
	"demystbert/internal/perfmodel"
	"demystbert/internal/profile"
	"demystbert/internal/tensor"
)

// This file holds the measurements only a traced run makes: the host's
// ceilings, kernels and one encoder layer timed alone, and the analytical
// model run against those ceilings.

// isoCalls is how many timed calls each isolated measurement makes, after
// one untimed call.
const isoCalls = 7

// hostCeilings are this machine's measured limits. They are denominators
// for the of_peak / of_stream ratios and the analytical model's device;
// nothing is gated on them.
type hostCeilings struct {
	fmaGFLOPS    float64
	streamGBs    float64
	loopbackGBs  float64
	loopbackLatS float64
}

func randSlice(rng *tensor.RNG, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32() - 0.5
	}
	return s
}

// timeCalls runs f once untimed and then n times, returning each
// duration in seconds.
func timeCalls(n int, f func()) []float64 {
	f()
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		f()
		d[i] = time.Since(t0).Seconds()
	}
	return d
}

// cacheSizes reports the host's L2/L3 as the kernel describes them, for
// reading next to the stream figure. Best effort: empty when unreadable.
func cacheSizes() string {
	var parts []string
	for _, idx := range []string{"index2", "index3"} {
		buf, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/" + idx + "/size")
		if err == nil {
			parts = append(parts, "L"+idx[5:]+" "+strings.TrimSpace(string(buf)))
		}
	}
	return strings.Join(parts, ", ")
}

func probeHost(e *env) hostCeilings {
	res := e.res
	var h hostCeilings
	res.layer("host.cores", float64(runtime.NumCPU()), 0, fmt.Sprintf("GOMAXPROCS %d", runtime.GOMAXPROCS(0)))
	rng := tensor.NewRNG(11)

	m, n, k := 512, 1024, 1024
	streamElems := 64 << 20 // 256 MiB per array
	probeElems := 1 << 20
	if e.smoke {
		m, n, k, streamElems, probeElems = 64, 64, 64, 1<<16, 1<<10
	}
	a, c := randSlice(rng, m*k), make([]float32, m*n)
	pb := kernels.PackWeight(false, n, k, randSlice(rng, k*n))
	best := slices.Min(timeCalls(isoCalls, func() { kernels.GEMMPacked(false, m, n, k, 1, a, pb, 0, c) }))
	h.fmaGFLOPS = float64(kernels.GEMMFLOPs(m, n, k)) / best / 1e9
	res.layer("host.fma_gflops", h.fmaGFLOPS, isoCalls, fmt.Sprintf("best GEMMPacked %dx%dx%d", m, n, k))

	x, y, z := make([]float32, streamElems), make([]float32, streamElems), make([]float32, streamElems)
	best = slices.Min(timeCalls(5, func() { kernels.Add(z, x, y) }))
	h.streamGBs = 3 * 4 * float64(streamElems) / best / 1e9
	res.layer("host.stream_gbs", h.streamGBs, 5,
		fmt.Sprintf("best kernels.Add over three %d MiB arrays; host caches: %s", 4*streamElems>>20, cacheSizes()))
	x, y, z = nil, nil, nil
	runtime.GC()

	groups, err := joinLoopback(2)
	if err != nil {
		e.logf("bench: loopback probe skipped: %v", err)
		return h
	}
	bw := make([]float64, len(groups))
	lat := make([]time.Duration, len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for r, g := range groups {
		wg.Add(1)
		go func(r int, g *distnet.Group) {
			defer wg.Done()
			bw[r], lat[r], errs[r] = g.ProbeLink(probeElems, 3)
		}(r, g)
	}
	wg.Wait()
	closeGroups(groups)
	if errs[0] != nil {
		e.logf("bench: loopback probe failed: %v", errs[0])
		return h
	}
	h.loopbackGBs, h.loopbackLatS = bw[0]/1e9, lat[0].Seconds()
	res.layer("host.loopback_gbs", h.loopbackGBs, 3, fmt.Sprintf("Group.ProbeLink, %d KiB all-reduce, world 2", probeElems*4>>10))
	res.layer("host.loopback_lat_us", h.loopbackLatS*1e6, 3)
	return h
}

// joinLoopback forms a process group of world ranks inside this process,
// over TCP on 127.0.0.1.
func joinLoopback(world int) ([]*distnet.Group, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	groups := make([]*distnet.Group, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		cfg := distnet.Config{Rank: r, World: world, Addr: ln.Addr().String(), Timeout: 30 * time.Second}
		if r == 0 {
			cfg.Listener = ln // the group closes it
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			groups[r], errs[r] = distnet.Join(cfg)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			closeGroups(groups)
			return nil, err
		}
	}
	return groups, nil
}

func closeGroups(groups []*distnet.Group) {
	for _, g := range groups {
		if g != nil {
			g.Close() // best effort: the run is over or has already failed
		}
	}
}

// emitKernelCategories turns the profiler's per-category totals into
// per-step times and achieved rates. Bytes are the profiler's computed
// bytes (tensor sizes), not measured memory traffic.
func emitKernelCategories(res *result, c *catTotals, stepMeanMS float64, h hostCeilings) {
	steps := float64(max(c.steps, 1))
	group := map[string]profile.Stat{
		"gemm":       c.group(profile.CatLinear, profile.CatFCGEMM),
		"attn_bgemm": c.group(profile.CatAttnBGEMM),
		"ew":         c.group(profile.CatScaleMaskSM, profile.CatGeLU, profile.CatDRRCLN),
		"embedding":  c.group(profile.CatEmbedding),
		"output":     c.group(profile.CatOutput),
		"lamb":       c.group(profile.CatLAMBStage1, profile.CatLAMBStage2),
	}
	for name, st := range group {
		res.layer("kernels."+name+".ms", ms(st.Duration)/steps, c.steps)
	}
	rate := func(st profile.Stat, amount int64) float64 {
		if st.Duration <= 0 {
			return 0
		}
		return float64(amount) / st.Duration.Seconds() / 1e9
	}
	ratio := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	gemm := rate(group["gemm"], group["gemm"].FLOPs)
	ew := rate(group["ew"], group["ew"].Bytes)
	lamb := rate(group["lamb"], group["lamb"].Bytes)
	res.layer("kernels.gemm.gflops", gemm, c.steps)
	res.layer("kernels.attn_bgemm.gflops", rate(group["attn_bgemm"], group["attn_bgemm"].FLOPs), c.steps)
	res.layer("kernels.ew.gbs", ew, c.steps, "computed bytes")
	res.layer("kernels.lamb.gbs", lamb, c.steps, "computed bytes")
	res.layer("kernels.gemm.of_peak", ratio(gemm, h.fmaGFLOPS), c.steps)
	res.layer("kernels.ew.of_stream", ratio(ew, h.streamGBs), c.steps)
	res.layer("kernels.lamb.of_stream", ratio(lamb, h.streamGBs), c.steps)
	res.layer("kernels.launches", float64(c.total.Kernels)/steps, c.steps)
	res.layer("kernels.unattributed_ms", stepMeanMS-ms(c.total.Duration)/steps, c.steps,
		"step wall − Σ kernel time: allocation, GC, Go glue")
}

// emitISO calls the kernels' exported entry points directly at the
// shapes the workload's (model, B, N) produces. The gap to the in-step
// kernels.gemm.gflops says whether time is lost in the kernel or around it.
func emitISO(e *env, spec trainSpec) {
	subset := spec.isoFew
	res := e.res
	cfg := spec.cfg
	t, d, ff, v := spec.b*spec.n, cfg.DModel, cfg.DFF, cfg.Vocab
	rng := tensor.NewRNG(12)
	gflops := func(flops int64, secs []float64) float64 { return float64(flops) / median(secs) / 1e9 }

	type gemmShape struct {
		name           string
		transA, transB bool
		m, n, k        int
		always         bool // also reported by the subset
	}
	shapes := []gemmShape{
		{"qkv", false, true, t, d, d, true},
		{"fc1", false, true, t, ff, d, true},
		{"fc2", false, true, t, d, ff, false},
		{"mlm", false, true, t, v, d, true},
		{"wgrad_fc1", true, false, ff, d, t, false},
		{"dgrad_fc1", false, false, t, d, ff, false},
	}
	for _, s := range shapes {
		if subset && !s.always {
			continue
		}
		a, b, c := randSlice(rng, s.m*s.k), randSlice(rng, s.k*s.n), make([]float32, s.m*s.n)
		dims := fmt.Sprintf("%dx%dx%d", s.m, s.n, s.k)
		flops := kernels.GEMMFLOPs(s.m, s.n, s.k)
		auto := timeCalls(isoCalls, func() { kernels.GEMM(s.transA, s.transB, s.m, s.n, s.k, 1, a, b, 0, c) })
		res.layer("kernels.iso."+s.name+".auto_gflops", gflops(flops, auto), isoCalls, dims)
		if subset {
			continue
		}
		// Training rebuilds a weight's pack once per step, so the
		// packed figure pays for the pack as well as the product.
		packed := timeCalls(isoCalls, func() {
			kernels.GEMMPacked(s.transA, s.m, s.n, s.k, 1, a, kernels.PackWeight(s.transB, s.n, s.k, b), 0, c)
		})
		res.layer("kernels.iso."+s.name+".packed_gflops", gflops(flops, packed), isoCalls, dims+" incl. PackWeight")
	}
	if subset {
		return
	}
	batch, n, dh := spec.b*cfg.Heads, spec.n, d/cfg.Heads
	q, k, p := randSlice(rng, batch*n*dh), randSlice(rng, batch*n*dh), randSlice(rng, batch*n*n)
	type batched func(batch int, transA, transB bool, m, n, k int, alpha float32, a []float32, strideA int, b []float32, strideB int, beta float32, c []float32, strideC int)
	for _, path := range []struct {
		name string
		f    batched
	}{{"batched_gflops", kernels.BatchedGEMM}, {"permatrix_gflops", kernels.BatchedGEMMPerMatrix}} {
		score := timeCalls(isoCalls, func() { path.f(batch, false, true, n, n, dh, 1, q, n*dh, k, n*dh, 0, p, n*n) })
		res.layer("kernels.iso.attn_score."+path.name, gflops(int64(batch)*kernels.GEMMFLOPs(n, n, dh), score), isoCalls,
			fmt.Sprintf("%d x %dx%dx%d", batch, n, n, dh))
		cx := timeCalls(isoCalls, func() { path.f(batch, false, false, n, dh, n, 1, p, n*n, k, n*dh, 0, q, n*dh) })
		res.layer("kernels.iso.attn_ctx."+path.name, gflops(int64(batch)*kernels.GEMMFLOPs(n, dh, n), cx), isoCalls,
			fmt.Sprintf("%d x %dx%dx%d", batch, n, dh, n))
	}
}

// emitEncoderLayer times one encoder layer alone at the workload's B, N
// and d, and splits the model's forward+backward into encoder layers and
// the rest (embedding, the vocabulary-sized MLM decoder, the losses).
func emitEncoderLayer(e *env, spec trainSpec, modelFwdBwdMS float64) {
	res := e.res
	cfg := spec.cfg
	rng := tensor.NewRNG(13)
	layer := nn.NewEncoderLayer("iso", cfg.DModel, cfg.Heads, cfg.DFF, cfg.DropProb, rng)
	ctx := &nn.Ctx{RNG: tensor.NewRNG(dropoutSeed), Train: true}
	x, dy := tensor.New(spec.b*spec.n, cfg.DModel), tensor.New(spec.b*spec.n, cfg.DModel)
	x.FillNormal(rng, 0, 1)
	dy.FillNormal(rng, 0, 1)
	mask := tensor.New(spec.b, spec.n)
	var fwd, bwd []float64
	for i := 0; i <= isoCalls; i++ {
		t0 := time.Now()
		layer.Forward(ctx, x, spec.b, spec.n, mask)
		t1 := time.Now()
		layer.Backward(ctx, dy)
		t2 := time.Now()
		if i > 0 { // the first pass allocates and packs
			fwd, bwd = append(fwd, ms(t1.Sub(t0))), append(bwd, ms(t2.Sub(t1)))
		}
		for _, p := range layer.Params() {
			p.ZeroGrad()
		}
	}
	f, b := median(fwd), median(bwd)
	dims := describe(spec)
	res.layer("nn.encoder_layer.fwd_ms", f, isoCalls, dims)
	res.layer("nn.encoder_layer.bwd_ms", b, isoCalls, dims)
	enc := float64(cfg.NumLayers) * (f + b)
	res.layer("nn.encoder_share", enc/modelFwdBwdMS, isoCalls, "L·(fwd+bwd) ÷ model fwd+bwd")
	res.layer("nn.embed_heads_ms", modelFwdBwdMS-enc, isoCalls, "model fwd+bwd − L·(fwd+bwd)")
}

// hostDevice describes this machine to the analytical model. The peaks
// are the probe's achieved bests, so the efficiency factors are 1; the
// launch cost and the half-efficiency sizes are assumptions, not probes.
func hostDevice(h hostCeilings) device.Device {
	return device.Device{
		Name:         "host",
		GEMMPeakFP32: h.fmaGFLOPS * 1e9, GEMMPeakFP16: h.fmaGFLOPS * 1e9,
		VectorPeak: h.fmaGFLOPS * 1e9,
		MemBW:      h.streamGBs * 1e9,
		Launch:     time.Microsecond,
		GEMMMaxEff: 1, GEMMHalfWork32: 4e6, GEMMHalfWork16: 4e6,
		MemMaxEff: 1, MemHalfBytes: 1e4, OptimizerMemEff: 1,
		Interconnect:        h.loopbackGBs * 1e9,
		InterconnectLatency: time.Duration(h.loopbackLatS * float64(time.Second)),
	}
}

// emitPerfModel runs the repository's analytical model on the host's own
// ceilings and reports how far it is from what was measured.
func emitPerfModel(res *result, spec trainSpec, h hostCeilings, c *catTotals, stepP50MS float64) {
	if h.fmaGFLOPS <= 0 || h.streamGBs <= 0 || c.total.Duration <= 0 {
		return
	}
	w := opgraph.Phase1(spec.cfg, spec.b, opgraph.FP32)
	w.SeqLen = spec.n
	r := perfmodel.Run(opgraph.Build(w), hostDevice(h))
	res.layer("perfmodel.step_ratio", ms(r.Total)/stepP50MS, c.steps, "modeled ÷ measured step")
	modeled := r.ByCategory()
	drift := func(name string, cats ...profile.Category) {
		var mod time.Duration
		for _, k := range cats {
			mod += modeled[k]
		}
		meas := float64(c.group(cats...).Duration) / float64(c.total.Duration)
		res.layer("perfmodel.drift_pp."+name, 100*(meas-float64(mod)/float64(r.Total)), c.steps,
			"measured share − modeled share of kernel time")
	}
	drift("gemm", profile.CatLinear, profile.CatFCGEMM)
	drift("ew", profile.CatScaleMaskSM, profile.CatGeLU, profile.CatDRRCLN)
	drift("lamb", profile.CatLAMBStage1, profile.CatLAMBStage2)
}
