package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/model"
	"demystbert/internal/obs"
	"demystbert/internal/serve"
	"demystbert/internal/tensor"
	"demystbert/internal/trace"
)

// serveSpec is one traffic mix offered to the serving engine.
type serveSpec struct {
	rate      float64 // open loop: Poisson arrivals per second; 0 = closed loop
	clients   int     // closed loop: callers that each wait for their reply
	longShare float64 // share of long requests; the rest are short queries
	// diag names the diagnostic phases this workload's traced run adds
	// on its untraced engine: "over", "mix50+q150" or none.
	diag string
}

var (
	serveQ50  = serveSpec{rate: 50, diag: "over"}
	serveQ100 = serveSpec{rate: 100, diag: "mix50+q150"}
	serveSat  = serveSpec{clients: 32, longShare: 0.10}
)

// Diagnostic phases of the traced run, reported and not gated: mixed
// lengths on an open loop, 150 req/s of short queries (both too close to
// the knee to repeat: the latter read p50 14–92 ms for the same seeds within
// half an hour)
// and overload.
var (
	serveMix50 = serveSpec{rate: 50, longShare: 0.10}
	serveQ150  = serveSpec{rate: 150}
	serveOver  = serveSpec{rate: 200, longShare: 0.10}
)

const (
	latencyLimitMS = 80  // the p99 limit behind slo_rate_rps
	overLimitMS    = 250 // "answered in time" during the overload phase
	checksumReqs   = 64
)

// lengths are the request-length bands, [lo, hi] tokens each.
type lengths struct{ shortLo, shortHi, longLo, longHi int }

func engineConfig(smoke bool, tracer *trace.Tracer) (serve.Config, lengths) {
	cfg := serve.Config{Model: mid4, Seed: modelSeed, MaxBatch: 16, MaxDelay: 2 * time.Millisecond,
		Buckets: []int{16, 32, 64, 128}, Tracer: tracer}
	l := lengths{4, 16, 48, 128}
	if smoke {
		cfg.Model, cfg.Buckets = toy, []int{8, 16, 32}
		l = lengths{4, 8, 12, 32}
	}
	return cfg, l
}

// genRequests builds n requests: [CLS] then words, 15 % of them [MASK]
// (at least one, so every request has something to predict).
func genRequests(rng *tensor.RNG, n int, cfg model.Config, l lengths, longShare float64) []*serve.Request {
	reqs := make([]*serve.Request, n)
	for i := range reqs {
		lo, hi := l.shortLo, l.shortHi
		if float64(rng.Float32()) < longShare {
			lo, hi = l.longLo, l.longHi
		}
		ln := lo + rng.Intn(hi-lo+1)
		toks := make([]int, ln)
		toks[0] = data.ClsID
		masked := false
		for j := 1; j < ln; j++ {
			if rng.Float32() < maskProb {
				toks[j], masked = data.MaskID, true
			} else {
				toks[j] = data.FirstWordID + rng.Intn(cfg.Vocab-data.FirstWordID)
			}
		}
		if !masked {
			toks[1+rng.Intn(ln-1)] = data.MaskID
		}
		reqs[i] = &serve.Request{Tokens: toks}
	}
	return reqs
}

func countMasks(r *serve.Request) int {
	n := 0
	for _, t := range r.Tokens {
		if t == data.MaskID {
			n++
		}
	}
	return n
}

// poisson returns the arrival offsets of a Poisson process of the given
// rate over [0, d), conditioned on its count being the expected rate·d:
// that many independent uniform times, sorted. The gaps are exponential
// as in the free process, but every seed offers the same number of
// requests, so tokens_per_s does not move with the seed's luck.
func poisson(rng *tensor.RNG, rate float64, d time.Duration) []time.Duration {
	due := make([]time.Duration, int(rate*d.Seconds()+0.5))
	for i := range due {
		due[i] = time.Duration(float64(rng.Float32()) * float64(d))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// reqOut is what the load generator saw of one request.
type reqOut struct {
	due, sent, done time.Time
	resp            *serve.Response
	err             error
	tokens          int
}

func (o *reqOut) latencyMS() float64 { return ms(o.done.Sub(o.due)) }

// phaseOut is one load phase as the generator saw it.
type phaseOut struct {
	reqs                         []reqOut
	wall                         time.Duration
	lateMaxMS                    float64
	depthMid, depthEnd, depthMax float64
	obs0, obs1                   obsSnap
	rt0, rt1                     runtimeSnap
}

// submit sends one request and checks that the reply answers every mask.
func submit(e *serve.Engine, r *serve.Request, o *reqOut) {
	o.tokens = len(r.Tokens)
	o.resp, o.err = e.Submit(r)
	o.done = time.Now()
	if o.err == nil && len(o.resp.Predictions) != countMasks(r) {
		o.err = fmt.Errorf("%d predictions for %d masks", len(o.resp.Predictions), countMasks(r))
	}
}

// openLoop offers reqs[i] at start+due[i] whatever the engine is doing.
// Each in-flight request is a goroutine parked in Submit. Latency is
// taken from the due time, so a stalled generator or engine is charged
// to the requests it delayed.
func openLoop(e *serve.Engine, reqs []*serve.Request, due []time.Duration) *phaseOut {
	p := &phaseOut{reqs: make([]reqOut, len(due))}
	var wg sync.WaitGroup
	p.obs0, p.rt0 = snapObs(), readRuntime()
	start := time.Now()
	for i, d := range due {
		o := &p.reqs[i]
		o.due = start.Add(d)
		if wait := time.Until(o.due); wait > 0 {
			time.Sleep(wait)
		}
		o.sent = time.Now()
		p.lateMaxMS = math.Max(p.lateMaxMS, ms(o.sent.Sub(o.due)))
		depth := obsGauge("serve_queue_depth")
		p.depthMax = math.Max(p.depthMax, depth)
		if i == len(due)/2 {
			p.depthMid = depth
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			submit(e, reqs[i], o)
		}(i)
	}
	p.depthEnd = obsGauge("serve_queue_depth")
	wg.Wait()
	p.wall = time.Since(start)
	p.rt1, p.obs1 = readRuntime(), snapObs()
	return p
}

// closedLoop runs `clients` callers for d; each sends its next request
// only when the previous one has been answered.
func closedLoop(e *serve.Engine, reqs []*serve.Request, clients int, d time.Duration) *phaseOut {
	p := &phaseOut{}
	per := make([][]reqOut, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	p.obs0, p.rt0 = snapObs(), readRuntime()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := reqs[int(next.Add(1)-1)%len(reqs)]
				o := reqOut{sent: time.Now()}
				o.due = o.sent
				submit(e, r, &o)
				per[c] = append(per[c], o)
			}
		}(c)
	}
	time.Sleep(d / 2)
	p.depthMid = obsGauge("serve_queue_depth")
	time.Sleep(time.Until(deadline))
	p.depthEnd = obsGauge("serve_queue_depth")
	wg.Wait()
	p.wall = time.Since(start)
	p.rt1, p.obs1 = readRuntime(), snapObs()
	p.depthMax = math.Max(p.depthMid, p.depthEnd)
	for _, outs := range per {
		p.reqs = append(p.reqs, outs...)
	}
	return p
}

// offer runs one phase of spec against e for d.
func offer(e *serve.Engine, spec serveSpec, l lengths, seed uint64, d time.Duration) *phaseOut {
	rng := tensor.NewRNG(seed)
	cfg := e.Config().Model
	if spec.rate > 0 {
		due := poisson(rng, spec.rate, d)
		return openLoop(e, genRequests(rng, len(due), cfg, l, spec.longShare), due)
	}
	return closedLoop(e, genRequests(rng, 4096, cfg, l, spec.longShare), spec.clients, d)
}

func (p *phaseOut) latencies(keep func(*reqOut) bool) []float64 {
	var lat []float64
	for i := range p.reqs {
		if o := &p.reqs[i]; o.err == nil && (keep == nil || keep(o)) {
			lat = append(lat, o.latencyMS())
		}
	}
	return lat
}

func (p *phaseOut) failed() int {
	n := 0
	for i := range p.reqs {
		if p.reqs[i].err != nil {
			n++
		}
	}
	return n
}

// checksums is the serving correctness check: the same fixed requests
// give the same predictions whether they arrive together, and are
// batched, or one at a time.
func checksums(e *env, eng *serve.Engine, l lengths, longShare float64) {
	reqs := genRequests(tensor.NewRNG(e.seed+77), checksumReqs, eng.Config().Model, l, longShare)
	outs := make(map[*serve.Request]*reqOut, len(reqs))
	var wg sync.WaitGroup
	for _, r := range reqs {
		o := &reqOut{}
		outs[r] = o
		wg.Add(1)
		go func(r *serve.Request) {
			defer wg.Done()
			submit(eng, r, o)
		}(r)
	}
	wg.Wait()
	batched := 0
	together, err := serve.PredictionChecksum(reqs, func(r *serve.Request) (*serve.Response, error) {
		if o := outs[r]; o.err == nil && o.resp.BatchSize > 1 {
			batched++
		}
		return outs[r].resp, outs[r].err
	})
	if err != nil {
		e.res.check("batched_equals_serial", false, "submitting together: %v", err)
		return
	}
	alone, err := serve.PredictionChecksum(reqs, eng.Submit)
	if err != nil {
		e.res.check("batched_equals_serial", false, "submitting one at a time: %v", err)
		return
	}
	e.res.check("batched_equals_serial", together == alone && batched > 0,
		"%d requests, %d of them batched: checksum %016x together, %016x one at a time", len(reqs), batched, together, alone)
}

func packMisses(a, b obsSnap) float64 {
	return a.delta(b, "kernels_pack_cache_misses_total", "kernels_pack_cache_rebuilds_total",
		"kernels_int8_pack_cache_misses_total", "kernels_int8_pack_cache_rebuilds_total")
}

// newEngine builds a serving engine and answers one request with it,
// which is what a user waits for before the first reply.
func newEngine(e *env, tracer *trace.Tracer) (*serve.Engine, lengths, error) {
	cfg, l := engineConfig(e.smoke, tracer)
	eng, err := serve.New(cfg)
	if err != nil {
		return nil, l, err
	}
	first := genRequests(tensor.NewRNG(e.seed), 1, cfg.Model, l, 0)[0]
	if _, err := eng.Submit(first); err != nil {
		eng.Close()
		return nil, l, fmt.Errorf("first request: %w", err)
	}
	return eng, l, nil
}

func runServe(e *env, spec serveSpec) error {
	res := e.res
	var eng *serve.Engine
	var l lengths
	err := e.setUp(func() (err error) {
		eng, l, err = newEngine(e, nil)
		return err
	}, func() { eng.Close(); eng = nil })
	if err != nil {
		return err
	}
	// The check doubles as warm-up: it sends the workload's own mix of
	// lengths, batched and alone, before anything is timed.
	checksums(e, eng, l, spec.longShare)

	var mix, q150, over *phaseOut
	if e.traced {
		// Diagnostic phases run on the untraced engine. Then a second
		// engine that traces every request takes over: the layer
		// metrics come from it.
		if spec.diag == "mix50+q150" {
			mix = offer(eng, serveMix50, l, e.seed+1, e.window()*2)
			q150 = offer(eng, serveQ150, l, e.seed+3, e.window())
		}
		if spec.diag == "over" {
			over = offer(eng, serveOver, l, e.seed+2, e.window())
		}
		plain := eng
		if eng, l, err = newEngine(e, trace.New(0, 0)); err != nil {
			plain.Close()
			return err
		}
		emitTracerOverhead(e, plain, eng, l)
		plain.Close()
	}
	defer eng.Close()
	warm := snapObs()
	runtime.GC()
	ph := offer(eng, spec, l, e.seed, e.window())
	res.check("no_pack_misses", packMisses(warm, ph.obs1) == 0,
		"%g weight-pack misses or rebuilds after warm-up", packMisses(warm, ph.obs1))
	if e.traced {
		emitStages(e, eng, ph)
		emitHTTPOverhead(e, eng, l)
	}

	res.Attempted = len(ph.reqs)
	res.Failed = ph.failed()
	res.Raw.OpMS = ph.latencies(nil)
	res.Raw.WallS = ph.wall.Seconds()
	for i := range ph.reqs {
		if o := &ph.reqs[i]; o.err == nil {
			res.Raw.Tokens += int64(o.tokens)
		}
	}
	emitServe(res, ph)
	if mix != nil {
		all := mix.latencies(nil)
		short := mix.latencies(func(o *reqOut) bool { return o.tokens <= l.shortHi })
		long := mix.latencies(func(o *reqOut) bool { return o.tokens > l.shortHi })
		res.layer("serve.mix50.lat_p50_ms", median(all), len(all))
		res.layer("serve.mix50.lat_p99_ms", percentile(all, 0.99), len(all))
		res.layer("serve.mix50.lat_short_p50_ms", median(short), len(short))
		res.layer("serve.mix50.lat_long_p50_ms", median(long), len(long))
	}
	if q150 != nil {
		all := q150.latencies(nil)
		res.layer("serve.q150.lat_p50_ms", median(all), len(all))
		res.layer("serve.q150.lat_p99_ms", percentile(all, 0.99), len(all))
	}
	if over != nil {
		in := over.latencies(func(o *reqOut) bool { return o.latencyMS() <= overLimitMS })
		res.layer("serve.over.within_limit_share", float64(len(in))/float64(len(over.reqs)), len(over.reqs),
			fmt.Sprintf("answered within %d ms of due time ÷ sent", overLimitMS))
		res.layer("serve.over.lat_p50_ms", median(over.latencies(nil)), len(over.reqs))
		res.layer("serve.over.rejected", over.obs0.delta(over.obs1, "serve_rejected_total"), len(over.reqs))
		res.layer("serve.over.max_queue_depth", over.depthMax, len(over.reqs))
	}
	if e.traced {
		probeHost(e)
	}
	return nil
}

// emitServe reports the scheduler's view of a phase: the engine's own
// counters over the phase, and what each response said about its batch.
func emitServe(res *result, p *phaseOut) {
	n := len(p.reqs)
	var queue []float64
	for i := range p.reqs {
		if o := &p.reqs[i]; o.err == nil {
			queue = append(queue, o.resp.QueueMS)
		}
	}
	d := func(names ...string) float64 { return p.obs0.delta(p.obs1, names...) }
	batches, served := d("serve_batches_total"), d("serve_served_total")
	real, pad := d("serve_goodput_tokens_total"), d("serve_padding_tokens_total")
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	res.layer("serve.queue_ms_p50", median(queue), len(queue))
	res.layer("serve.batch_mean", div(served, batches), int(batches), "requests per dispatched batch")
	res.layer("serve.deadline_flush_share", div(d("serve_deadline_flushes_total"), batches), int(batches))
	res.layer("serve.gen_late_ms_max", p.lateMaxMS, n, "how late the generator sent a request, worst case")
	res.layer("serve.pad_share", div(pad, pad+real), int(batches), "padding ÷ (padding + real) tokens")
	res.layer("serve.rps", div(float64(len(queue)), p.wall.Seconds()), n)
	res.layer("serve.answered_share", div(float64(len(queue)), float64(n)), n)
	res.layer("serve.queue_depth_mid", p.depthMid, 0)
	res.layer("serve.queue_depth_end", p.depthEnd, 0)
	res.layer("serve.rejected", d("serve_rejected_total"), n)
	res.layer("serve.pack_misses", packMisses(p.obs0, p.obs1), n)
	emitRuntime(res, p.rt0, p.rt1, n)
	emitKernelCounters(res, p.obs0, p.obs1, n)
}

// emitStages reads the engine's own per-request stage breakdown (the
// last 256 requests it retains), checks that the five stages add up to
// the total, and records the requests' spans.
func emitStages(e *env, eng *serve.Engine, p *phaseOut) {
	res := e.res
	recs := eng.RecentRequests()
	byTrace := make(map[string]serve.RequestRecord, len(recs))
	var enq, wait, asm, fwd, rsp, total []float64
	for _, r := range recs {
		if r.Error != "" {
			continue
		}
		byTrace[r.TraceID] = r
		enq, wait, asm = append(enq, r.EnqueueMS), append(wait, r.BucketWaitMS), append(asm, r.BatchAssemblyMS)
		fwd, rsp, total = append(fwd, r.ForwardMS), append(rsp, r.RespondMS), append(total, r.TotalMS)
	}
	n := len(total)
	res.layer("serve.stage.enqueue_ms", mean(enq), n)
	res.layer("serve.stage.bucket_wait_ms", mean(wait), n)
	res.layer("serve.stage.batch_assembly_ms", mean(asm), n)
	res.layer("serve.stage.forward_ms", mean(fwd), n)
	res.layer("serve.stage.respond_ms", mean(rsp), n)
	sum := mean(enq) + mean(wait) + mean(asm) + mean(fwd) + mean(rsp)
	res.check("stage_sum", n > 0 && math.Abs(sum-mean(total)) <= 0.01*mean(total),
		"five stage means sum to %.4f ms against a mean total of %.4f ms over %d requests", sum, mean(total), n)

	at := func(t time.Time, offMS float64) time.Time {
		return t.Add(time.Duration(offMS * float64(time.Millisecond)))
	}
	for i := range p.reqs {
		o := &p.reqs[i]
		if o.err != nil {
			continue
		}
		root := e.rec.add(0, i, "request", o.due, o.done)
		e.rec.add(root, i, "loadgen.late", o.due, o.sent)
		sub := e.rec.add(root, i, "serve.submit", o.sent, o.done)
		r, ok := byTrace[o.resp.TraceID]
		if !ok {
			continue
		}
		t := r.Start
		for _, st := range []struct {
			name string
			ms   float64
		}{{"serve.enqueue", r.EnqueueMS}, {"serve.bucket_wait", r.BucketWaitMS}, {"serve.batch_assembly", r.BatchAssemblyMS},
			{"serve.forward", r.ForwardMS}, {"serve.respond", r.RespondMS}} {
			e.rec.add(sub, i, st.name, t, at(t, st.ms))
			t = at(t, st.ms)
		}
	}
}

// emitTracerOverhead sends the same requests, one at a time, alternately
// to an engine without a tracer and to one that traces every request.
// Nothing queues and nothing is batched, so the pairs differ by the
// tracer alone; arrival-driven phases on this VM differ by more than
// that from one second to the next.
func emitTracerOverhead(e *env, plain, traced *serve.Engine, l lengths) {
	reqs := genRequests(tensor.NewRNG(e.seed+9), e.probes(128), plain.Config().Model, l, 0)
	var a, b []float64
	for i, r := range reqs {
		order := []*serve.Engine{plain, traced}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, eng := range order {
			t0 := time.Now()
			if _, err := eng.Submit(r); err != nil {
				continue
			}
			if eng == plain {
				a = append(a, ms(time.Since(t0)))
			} else {
				b = append(b, ms(time.Since(t0)))
			}
		}
	}
	e.res.layer("telemetry.tracer_overhead_pct", 100*(median(b)/median(a)-1), len(b),
		"traced ÷ untraced latency p50 − 1, same requests one at a time on two engines")
}

// emitHTTPOverhead drives the HTTP handler in-process (no socket) and
// subtracts the time the engine reports for the request itself: what is
// left is JSON decoding, routing and encoding.
func emitHTTPOverhead(e *env, eng *serve.Engine, l lengths) {
	h := serve.Handler(eng, obs.Default)
	reqs := genRequests(tensor.NewRNG(e.seed+5), e.probes(32), eng.Config().Model, l, 0)
	var over []float64
	for _, r := range reqs {
		body, err := json.Marshal(r)
		if err != nil {
			continue
		}
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/mlm", bytes.NewReader(body)))
		d := time.Since(t0)
		var resp serve.Response
		if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &resp) != nil {
			continue
		}
		over = append(over, 1e3*(ms(d)-resp.TotalMS))
	}
	e.res.layer("serve.http.overhead_us_p50", median(over), len(over), "Handler via httptest.NewRecorder − Submit's own total")
}
