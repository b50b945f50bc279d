package serve

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/model"
	"demystbert/internal/nn"
	"demystbert/internal/obs"
	"demystbert/internal/tensor"
)

// testConfig is the reduced-scale engine every scheduler test uses.
func testConfig() Config {
	mcfg := model.Tiny()
	mcfg.FusedAttention = true
	return Config{
		Model:    mcfg,
		Seed:     7,
		MaxBatch: 8,
		MaxDelay: 2 * time.Millisecond,
		Buckets:  []int{8, 16},
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
	if resp.Bucket != 8 {
		t.Fatalf("bucket %d, want 8 (smallest fitting length 6)", resp.Bucket)
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
		{"too long", testRequest(17, 1)},
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

// TestStarvationBound: a lone odd-length request (nothing else in its
// bucket, nothing else arriving) must not wait much past MaxDelay — the
// deadline flush, not a full bucket, dispatches it.
func TestStarvationBound(t *testing.T) {
	cfg := testConfig()
	cfg.MaxDelay = 5 * time.Millisecond
	e := newTestEngine(t, cfg)
	// One warm call so model/runtime state is settled before timing.
	if _, err := e.Submit(testRequest(6, 0)); err != nil {
		t.Fatalf("warm Submit: %v", err)
	}
	start := time.Now()
	resp, err := e.Submit(testRequest(13, 1)) // 13 → bucket 16, alone
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	elapsed := time.Since(start)
	// Bound: coalescing deadline + a generous forward+scheduling margin.
	if limit := cfg.MaxDelay + 500*time.Millisecond; elapsed > limit {
		t.Errorf("lone request took %v, want < %v (starved past the batch deadline)", elapsed, limit)
	}
	if resp.BatchSize != 1 {
		t.Errorf("batch size %d, want 1", resp.BatchSize)
	}
	if resp.QueueMS < float64(cfg.MaxDelay.Milliseconds())-1 {
		t.Logf("note: queue wait %.2fms under deadline %v (another dispatch triggered early flush)", resp.QueueMS, cfg.MaxDelay)
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

// numerics names the two engine configurations that exist: f32 with fused
// epilogues, and int8 Linear forwards.
var numerics = []struct {
	name        string
	int8        bool
	missCounter string
}{
	{"f32", false, "kernels_pack_cache_misses_total"},
	{"int8", true, "kernels_int8_pack_cache_misses_total"},
}

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
// after the load-time warmup, serving traffic in either numeric mode takes
// zero pack-cache misses — every weight pack the forward consults was
// pre-built by WarmupInference and frozen weights never invalidate it.
func TestSteadyStateZeroPackMisses(t *testing.T) {
	for _, tc := range numerics {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Int8 = tc.int8
			e := newTestEngine(t, cfg) // New warms the packs (cold misses land here)

			before := counterValue(t, tc.missCounter)
			submitBurst(t, e, 48)
			if d := counterValue(t, tc.missCounter) - before; d != 0 {
				t.Errorf("steady-state serving took %d pack-cache misses on %s, want 0 (warmup must pre-pack everything)", d, tc.name)
			}
		})
	}
}

// directF32Predictions answers reqs one at a time on e's model with no
// scheduler: each request alone in a batch padded to its bucket, straight
// through PredictMaskedAt under a plain f32 eval context.
func directF32Predictions(e *Engine, reqs []*Request) [][]int {
	ctx := &nn.Ctx{}
	out := make([][]int, len(reqs))
	for i, req := range reqs {
		positions, bkt, _ := e.validate(req)
		b := &data.Batch{B: 1, N: bkt, Tokens: make([]int, bkt), Segments: make([]int, bkt)}
		copy(b.Tokens, req.Tokens)
		if len(req.Tokens) < bkt {
			b.Mask = tensor.New(1, bkt)
			for j := len(req.Tokens); j < bkt; j++ {
				b.Mask.Set(-1e9, 0, j)
			}
		}
		out[i] = e.Model().PredictMaskedAt(ctx, b, [][]int{positions})[0]
	}
	return out
}

// TestTwoEnginesOneProcess: numeric mode is a property of each engine's
// context, not of the process. An int8 and an f32 engine alive together
// (created in the order that used to flip the first one's route) each keep
// their own numerics — the f32 engine bit-equal to direct PredictMaskedAt,
// the int8 engine bit-equal to a lone int8 engine — and both hold the
// zero-pack-miss invariant while serving concurrently.
func TestTwoEnginesOneProcess(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 1 // every request runs alone, so direct calls see the same shapes
	cfg8 := cfg
	cfg8.Int8 = true

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

	lone := newTestEngine(t, cfg8)
	wantInt8 := serve(lone)
	lone.Close()

	e8 := newTestEngine(t, cfg8)
	e32 := newTestEngine(t, cfg) // the later f32 engine must not flip e8
	wantF32 := directF32Predictions(e32, reqs)
	if reflect.DeepEqual(wantF32, wantInt8) {
		t.Fatal("f32 and int8 predictions coincide on the whole request set; the test cannot tell the modes apart")
	}

	missF32 := counterValue(t, numerics[0].missCounter)
	missInt8 := counterValue(t, numerics[1].missCounter)
	var got8, got32 [][]int
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); got8 = serve(e8) }()
	go func() { defer wg.Done(); got32 = serve(e32) }()
	wg.Wait()
	submitBurst(t, e8, 24)
	submitBurst(t, e32, 24)

	if !reflect.DeepEqual(got32, wantF32) {
		t.Errorf("f32 engine beside an int8 engine diverged from direct PredictMaskedAt:\n got %v\nwant %v", got32, wantF32)
	}
	if !reflect.DeepEqual(got8, wantInt8) {
		t.Errorf("int8 engine beside an f32 engine diverged from a lone int8 engine:\n got %v\nwant %v", got8, wantInt8)
	}
	if d := counterValue(t, numerics[0].missCounter) - missF32; d != 0 {
		t.Errorf("%d f32 pack-cache misses with both engines serving, want 0", d)
	}
	if d := counterValue(t, numerics[1].missCounter) - missInt8; d != 0 {
		t.Errorf("%d int8 pack-cache misses with both engines serving, want 0", d)
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
