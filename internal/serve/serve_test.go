package serve

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/model"
	"demystbert/internal/nn"
	"demystbert/internal/obs"
	"demystbert/internal/trace"
)

// testConfig is the reduced-scale engine every scheduler test uses.
func testConfig() Config {
	return Config{
		Model:    model.Tiny(),
		Seed:     7,
		MaxBatch: 8,
		QueueCap: 256,
	}
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(e.Close)
	return e
}

// testRequest builds a deterministic request of length ln with a [MASK]
// at position 1.
func testRequest(ln, salt int) *Request {
	toks := make([]int, ln)
	toks[0] = data.ClsID
	toks[1] = data.MaskID
	for i := 2; i < ln; i++ {
		toks[i] = data.FirstWordID + (salt*31+i*7)%900
	}
	return &Request{Tokens: toks}
}

// TestSubmitBasic: a lone request gets a prediction for each mask and
// honest scheduling telemetry.
func TestSubmitBasic(t *testing.T) {
	e := newTestEngine(t, testConfig())
	resp, err := e.Submit(testRequest(6, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if len(resp.Predictions) != 1 || resp.Predictions[0].Pos != 1 {
		t.Fatalf("predictions %+v, want one at pos 1", resp.Predictions)
	}
	if tok := resp.Predictions[0].Token; tok < 0 || tok >= e.cfg.Model.Vocab {
		t.Fatalf("predicted token %d outside vocab", tok)
	}
	if resp.BatchSize != 1 {
		t.Fatalf("batch size %d, want 1 for a lone request", resp.BatchSize)
	}
}

// TestValidation: admission rejects malformed requests with
// BadRequestError before they reach the model.
func TestValidation(t *testing.T) {
	e := newTestEngine(t, testConfig())
	cases := []struct {
		name string
		req  *Request
	}{
		{"empty", &Request{}},
		{"too long", testRequest(e.cfg.Model.MaxPos+1, 1)},
		{"bad token", &Request{Tokens: []int{1, 2, 1000}}},
		{"negative token", &Request{Tokens: []int{1, -1}}},
		{"segment length", &Request{Tokens: []int{1, 3}, Segments: []int{0}}},
		{"segment value", &Request{Tokens: []int{1, 3}, Segments: []int{0, 2}}},
	}
	for _, tc := range cases {
		_, err := e.Submit(tc.req)
		if _, ok := err.(*BadRequestError); !ok {
			t.Errorf("%s: error %v, want BadRequestError", tc.name, err)
		}
	}
}

// TestConcurrentCoalescing floods the engine from many goroutines under
// the race detector: every request must complete, and with arrivals far
// faster than forwards the scheduler must form multi-request batches.
func TestConcurrentCoalescing(t *testing.T) {
	e := newTestEngine(t, testConfig())
	const N = 200
	var wg sync.WaitGroup
	var mu sync.Mutex
	batched := 0
	errs := make(chan error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := e.Submit(testRequest(5+i%10, i))
			if err != nil {
				errs <- fmt.Errorf("request %d: %w", i, err)
				return
			}
			if len(resp.Predictions) == 0 {
				errs <- fmt.Errorf("request %d: no predictions", i)
				return
			}
			if resp.BatchSize > 1 {
				mu.Lock()
				batched++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if batched == 0 {
		t.Error("no request was ever coalesced into a multi-request batch")
	}
}

// TestLoneRequestIsNotHeld: the scheduler is work-conserving — a lone
// request on an idle engine is dispatched at once, alone. The engine is
// built with a one-second MaxDelay, so returning well inside it also shows
// the field is inert without a tight timing bound.
func TestLoneRequestIsNotHeld(t *testing.T) {
	cfg := testConfig()
	cfg.MaxDelay = time.Second
	e := newTestEngine(t, cfg)
	// One warm call so model/runtime state is settled before timing.
	if _, err := e.Submit(testRequest(6, 0)); err != nil {
		t.Fatalf("warm Submit: %v", err)
	}
	start := time.Now()
	resp, err := e.Submit(testRequest(13, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if elapsed := time.Since(start); elapsed > cfg.MaxDelay/2 {
		t.Errorf("lone request on an idle engine took %v: held back for company", elapsed)
	}
	if resp.BatchSize != 1 {
		t.Errorf("batch size %d, want 1", resp.BatchSize)
	}
}

// holdRunner parks e's runner inside a batch until release is called, so
// that requests submitted meanwhile queue up behind a running batch in an
// order the test controls. The gate is a lone [CLS] whose result channel
// is unbuffered: the runner blocks delivering it.
func holdRunner(t *testing.T, e *Engine) (release func()) {
	t.Helper()
	before := counterValue(t, "serve_batches_total")
	gate := &pending{tokens: []int{data.ClsID}, enq: time.Now(), done: make(chan result)}
	e.queue <- gate
	queueDepth.Add(1) // as Submit does after its send
	// The batch counter moves after the forward: from then on the runner
	// is past its fill loop and takes nothing more into the gate's batch.
	for counterValue(t, "serve_batches_total") == before {
		time.Sleep(100 * time.Microsecond)
	}
	return func() { <-gate.done }
}

// submitQueued submits reqs to an engine whose runner is held, one
// goroutine each, request i in the queue before request i+1 is sent. wait
// returns each request's /debug/requests record once all are answered.
func submitQueued(t *testing.T, e *Engine, reqs []*Request) (wait func() []RequestRecord) {
	t.Helper()
	resps := make([]*Response, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r *Request) {
			defer wg.Done()
			resps[i], errs[i] = e.Submit(r)
		}(i, r)
		for len(e.queue) <= i {
			time.Sleep(100 * time.Microsecond)
		}
	}
	return func() []RequestRecord {
		wg.Wait()
		recs := make([]RequestRecord, len(reqs))
		for i := range reqs {
			if errs[i] != nil {
				t.Fatalf("request %d: %v", i, errs[i])
			}
			id, _ := trace.ParseTraceID(resps[i].TraceID)
			rec, ok := e.FindRequest(id)
			if !ok {
				t.Fatalf("request %d not in the request log", i)
			}
			if rec.Predictions != len(resps[i].Predictions) || rec.BatchSize != resps[i].BatchSize {
				t.Fatalf("request %d: record %+v disagrees with response %+v", i, rec, resps[i])
			}
			recs[i] = rec
		}
		return recs
	}
}

// TestMixedLengthsShareABatch: nothing groups requests by length any
// more — the shortest and the longest admissible request, queued behind a
// running batch, leave together.
func TestMixedLengthsShareABatch(t *testing.T) {
	e := newTestEngine(t, testConfig())
	maxPos := e.cfg.Model.MaxPos
	release := holdRunner(t, e)
	wait := submitQueued(t, e, []*Request{testRequest(5, 1), testRequest(maxPos, 2)})
	release()
	recs := wait()
	if recs[0].BatchSeq != recs[1].BatchSeq {
		t.Errorf("5-token and %d-token request left in batches %d and %d, want one", maxPos, recs[0].BatchSeq, recs[1].BatchSeq)
	}
	for i, r := range recs {
		if r.BatchSize != 2 || r.BatchTokens != 5+maxPos {
			t.Errorf("request %d: batch of %d requests, %d tokens; want 2 and %d", i, r.BatchSize, r.BatchTokens, 5+maxPos)
		}
	}
}

// TestFIFOAcrossBatches: requests leave in arrival order, MaxBatch at a
// time — six queued behind a running batch with MaxBatch 2 make three
// consecutive batches of two.
func TestFIFOAcrossBatches(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 2
	e := newTestEngine(t, cfg)
	release := holdRunner(t, e)
	var reqs []*Request
	for i, ln := range []int{9, 40, 5, 5, 64, 2} {
		reqs = append(reqs, testRequest(ln, i))
	}
	wait := submitQueued(t, e, reqs)
	release()
	recs := wait()
	for i, r := range recs {
		if want := recs[0].BatchSeq + int64(i/2); r.BatchSeq != want || r.BatchSize != 2 {
			t.Errorf("request %d: batch %d of %d requests, want batch %d of 2 (first request's is %d)", i, r.BatchSeq, r.BatchSize, want, recs[0].BatchSeq)
		}
	}
}

// TestRaggedBatchLengthExtremes: a lone [CLS] (a 1×1 softmax, nothing to
// predict), a 2-token and a MaxPos-token request are served in one ragged
// batch with the predictions each gets alone; MaxPos+1 tokens is a client
// error.
func TestRaggedBatchLengthExtremes(t *testing.T) {
	e := newTestEngine(t, testConfig())
	maxPos := e.cfg.Model.MaxPos
	reqs := []*Request{{Tokens: []int{data.ClsID}}, testRequest(2, 1), testRequest(maxPos, 2)}
	want := directF32Predictions(e, reqs)

	release := holdRunner(t, e)
	wait := submitQueued(t, e, reqs)
	release()
	recs := wait()
	for i, r := range recs {
		if r.BatchSeq != recs[0].BatchSeq || r.BatchTokens != 1+2+maxPos {
			t.Errorf("request %d: batch %d with %d tokens, want batch %d with %d", i, r.BatchSeq, r.BatchTokens, recs[0].BatchSeq, 1+2+maxPos)
		}
		if r.Predictions != len(want[i]) {
			t.Errorf("request %d: %d predictions, want %d", i, r.Predictions, len(want[i]))
		}
	}
	// Same requests again, one at a time: same tokens as the direct calls.
	for i, req := range reqs {
		resp, err := e.Submit(req)
		if err != nil {
			t.Fatalf("request %d alone: %v", i, err)
		}
		if resp.Predictions == nil {
			t.Errorf("request %d: nil predictions, want an empty list at least", i)
		}
		for j, p := range resp.Predictions {
			if p.Token != want[i][j] {
				t.Errorf("request %d mask %d: served %d, direct %d", i, j, p.Token, want[i][j])
			}
		}
	}

	var bad *BadRequestError
	if _, err := e.Submit(testRequest(maxPos+1, 3)); !errors.As(err, &bad) {
		t.Errorf("%d tokens: error %v, want BadRequestError", maxPos+1, err)
	}
}

// TestBatchTokensSumsItsBatch: every record's BatchTokens is the summed
// Tokens of the records sharing its BatchSeq, the serve_batch_tokens
// histogram saw every batch, and the five stages still partition the
// total.
func TestBatchTokensSumsItsBatch(t *testing.T) {
	e := newTestEngine(t, testConfig())
	count, sum := batchTokensHist.Count(), batchTokensHist.Sum()
	submitBurst(t, e, 48) // under requestLogCap: every batch is in the ring whole

	type batch struct{ tokens, n int }
	batches := map[int64]*batch{}
	recs := e.RecentRequests()
	total := 0
	for _, r := range recs {
		total += r.Tokens
		b := batches[r.BatchSeq]
		if b == nil {
			b = &batch{}
			batches[r.BatchSeq] = b
		}
		b.tokens += r.Tokens
		b.n++
	}
	for _, r := range recs {
		b := batches[r.BatchSeq]
		if r.BatchTokens != b.tokens || r.BatchSize != b.n {
			t.Errorf("batch %d: record says %d tokens in %d requests, its records sum to %d in %d", r.BatchSeq, r.BatchTokens, r.BatchSize, b.tokens, b.n)
		}
		sum := r.EnqueueMS + r.BucketWaitMS + r.BatchAssemblyMS + r.ForwardMS + r.RespondMS
		if math.Abs(sum-r.TotalMS) > 1e-6 {
			t.Errorf("batch %d: stages sum to %.6f ms, total is %.6f ms", r.BatchSeq, sum, r.TotalMS)
		}
	}
	if n, toks := batchTokensHist.Count()-count, batchTokensHist.Sum()-sum; n != int64(len(batches)) || toks != float64(total) {
		t.Errorf("serve_batch_tokens observed %d batches of %g tokens, the request log shows %d of %d", n, toks, len(batches), total)
	}
}

// TestOverloadRejects: with a full queue, Submit fails fast with
// ErrOverloaded instead of blocking — the backpressure contract.
func TestOverloadRejects(t *testing.T) {
	cfg := testConfig()
	cfg.QueueCap = 2
	cfg.MaxBatch = 2
	cfg.MaxDelay = 50 * time.Millisecond
	e := newTestEngine(t, cfg)

	const N = 64
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok, over := 0, 0
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := e.Submit(testRequest(6, i))
			mu.Lock()
			defer mu.Unlock()
			switch err {
			case nil:
				ok++
			case ErrOverloaded:
				over++
			default:
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if ok == 0 {
		t.Error("no request succeeded")
	}
	if ok+over != N {
		t.Errorf("ok=%d + overloaded=%d != %d", ok, over, N)
	}
}

// TestCloseDrainsAdmitted: requests admitted before Close are answered,
// not abandoned; requests after Close get ErrDraining.
func TestCloseDrainsAdmitted(t *testing.T) {
	e := newTestEngine(t, testConfig())
	const N = 32
	admittedBefore := counterValue(t, "serve_requests_total")
	var wg sync.WaitGroup
	errs := make(chan error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.Submit(testRequest(6, i)); err != nil {
				errs <- err
			}
		}(i)
	}
	// Wait until every request is past admission (the accepted counter
	// bumps right after enqueue), then drain.
	for counterValue(t, "serve_requests_total")-admittedBefore < N {
		time.Sleep(100 * time.Microsecond)
	}
	e.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("admitted request failed across Close: %v", err)
	}
	if _, err := e.Submit(testRequest(6, 99)); err != ErrDraining {
		t.Errorf("Submit after Close: %v, want ErrDraining", err)
	}
}

// counterValue reads a counter snapshot from the default registry.
func counterValue(t *testing.T, name string) int64 {
	t.Helper()
	m, found := obs.Default.Find(name)
	if !found {
		t.Fatalf("metric %q not registered", name)
	}
	return int64(m.Value)
}

// packMissCounter counts weight packs built cold; a warmed engine serving
// frozen weights must never move it.
const packMissCounter = "kernels_pack_cache_misses_total"

// submitBurst drives n concurrent requests of mixed lengths through e.
func submitBurst(t *testing.T, e *Engine, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.Submit(testRequest(5+i%12, i)); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
}

// TestSteadyStateZeroPackMisses is the pack-cache acceptance criterion:
// after the load-time warmup, serving traffic takes zero pack-cache misses
// — every weight pack the forward consults was pre-built by
// WarmupInference and frozen weights never invalidate it.
func TestSteadyStateZeroPackMisses(t *testing.T) {
	t.Run("f32", func(t *testing.T) {
		e := newTestEngine(t, testConfig()) // New warms the packs (cold misses land here)

		before := counterValue(t, packMissCounter)
		submitBurst(t, e, 48)
		if d := counterValue(t, packMissCounter) - before; d != 0 {
			t.Errorf("steady-state serving took %d pack-cache misses, want 0 (warmup must pre-pack everything)", d)
		}
	})
}

// directF32Predictions answers reqs one at a time on e's model with no
// scheduler: each request alone in a ragged batch, straight through
// PredictMaskedAt under a plain f32 eval context.
func directF32Predictions(e *Engine, reqs []*Request) [][]int {
	ctx := &nn.Ctx{}
	out := make([][]int, len(reqs))
	for i, req := range reqs {
		positions, _ := e.validate(req)
		var b data.Ragged
		b.Append(req.Tokens, req.Segments)
		out[i] = e.Model().PredictMaskedAt(ctx, &b, [][]int{positions})[0]
	}
	return out
}

// TestTwoEnginesOneProcess: an engine's answers are a property of its own
// model and context, not of the process. Two engines with different weight
// seeds, alive together and serving concurrently, each answer bit for bit
// like a lone engine of their seed, and neither takes a pack-cache miss.
func TestTwoEnginesOneProcess(t *testing.T) {
	cfgA := testConfig()
	cfgA.MaxBatch = 1 // every request runs alone, so every engine sees the same shapes
	cfgB := cfgA
	cfgB.Seed = cfgA.Seed + 1

	reqs := make([]*Request, 24)
	for i := range reqs {
		reqs[i] = testRequest(5+i%12, i)
	}
	serve := func(e *Engine) [][]int {
		out := make([][]int, len(reqs))
		for i, req := range reqs {
			resp, err := e.Submit(req)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			for _, p := range resp.Predictions {
				out[i] = append(out[i], p.Token)
			}
		}
		return out
	}

	lone := func(cfg Config) [][]int {
		e := newTestEngine(t, cfg)
		defer e.Close()
		return serve(e)
	}
	wantA, wantB := lone(cfgA), lone(cfgB)
	if reflect.DeepEqual(wantA, wantB) {
		t.Fatal("both seeds predict alike on the whole request set; the test cannot tell the engines apart")
	}

	eA := newTestEngine(t, cfgA)
	eB := newTestEngine(t, cfgB)
	before := counterValue(t, packMissCounter)
	var gotA, gotB [][]int
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); gotA = serve(eA) }()
	go func() { defer wg.Done(); gotB = serve(eB) }()
	wg.Wait()
	submitBurst(t, eA, 24)
	submitBurst(t, eB, 24)

	if !reflect.DeepEqual(gotA, wantA) {
		t.Errorf("seed %d engine beside another diverged from a lone one:\n got %v\nwant %v", cfgA.Seed, gotA, wantA)
	}
	if !reflect.DeepEqual(gotB, wantB) {
		t.Errorf("seed %d engine beside another diverged from a lone one:\n got %v\nwant %v", cfgB.Seed, gotB, wantB)
	}
	if d := counterValue(t, packMissCounter) - before; d != 0 {
		t.Errorf("%d pack-cache misses with both engines serving, want 0", d)
	}
}

// TestWarmupCoversInferencePath: the warmup pack count matches the
// number of Linear layers the inference forward actually consults.
func TestWarmupCoversInferencePath(t *testing.T) {
	e := newTestEngine(t, testConfig())
	// 6 Linears per encoder layer (Wq Wk Wv Wo FC1 FC2) + MLM dense +
	// tied decoder.
	want := 6*e.cfg.Model.NumLayers + 2
	if e.WarmedPacks != want {
		t.Errorf("warmed %d packs, want %d", e.WarmedPacks, want)
	}
}

// TestServedBatchAllocationGuard: once warm, a served batch draws every
// activation from the engine context's workspace, so what it allocates is
// request bookkeeping — under 64 KiB — where a fresh tensor per activation
// cost hundreds of KiB even at this reduced scale (about 14 MB per batch
// at serve_sat's).
func TestServedBatchAllocationGuard(t *testing.T) {
	e := newTestEngine(t, testConfig())
	req := testRequest(e.cfg.Model.MaxPos, 1)
	submit := func() {
		if _, err := e.Submit(req); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	for range 3 {
		submit()
	}
	const batches = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range batches {
		submit()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / batches; per >= 64<<10 {
		t.Errorf("a warm served batch allocates %d bytes, want under 64 KiB", per)
	}
}
