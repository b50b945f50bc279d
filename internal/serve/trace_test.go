package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"demystbert/internal/obs"
	"demystbert/internal/trace"
)

// TestSubmitTraceStagesSumToTotal pins the acceptance contract: the
// /debug/requests stage decomposition partitions the measured total
// exactly — enqueue + bucket wait + batch assembly + forward + respond
// equals TotalMS.
func TestSubmitTraceStagesSumToTotal(t *testing.T) {
	cfg := testConfig()
	cfg.Tracer = trace.New(0, 1024)
	e := newTestEngine(t, cfg)
	resp, err := e.Submit(testRequest(6, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if resp.TraceID == "" {
		t.Fatal("response missing trace id")
	}
	id, ok := trace.ParseTraceID(resp.TraceID)
	if !ok {
		t.Fatalf("response trace id %q unparsable", resp.TraceID)
	}
	rec, found := e.FindRequest(id)
	if !found {
		t.Fatal("request not in /debug/requests ring")
	}
	sum := rec.EnqueueMS + rec.BucketWaitMS + rec.BatchAssemblyMS + rec.ForwardMS + rec.RespondMS
	if rec.TotalMS <= 0 {
		t.Fatalf("total %v", rec.TotalMS)
	}
	if math.Abs(sum-rec.TotalMS) > 1e-6 {
		t.Fatalf("stages sum to %.6f ms, total is %.6f ms", sum, rec.TotalMS)
	}
	if rec.ForwardMS <= 0 || rec.BatchSize != 1 || rec.Tokens != 6 {
		t.Fatalf("record %+v", rec)
	}

	// The sampled request recorded its span family.
	names := map[string]int{}
	for _, s := range cfg.Tracer.Spans() {
		if s.Trace == id {
			names[s.Name]++
		}
	}
	for _, want := range []string{"request", "enqueue", "bucket_wait", "batch_assembly", "forward", "respond", "batch", "embed"} {
		if names[want] == 0 {
			t.Fatalf("no %q span recorded; got %v", want, names)
		}
	}

	// WriteTrace exports spans + kernels as one valid JSON timeline.
	var buf bytes.Buffer
	if err := e.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace export not valid JSON: %v", err)
	}
	if len(events) < 8 {
		t.Fatalf("trace export has only %d events", len(events))
	}
}

// TestHTTPTraceHeaderAndDebugRequests drives the HTTP surface: the
// response carries X-Trace-Id and /debug/requests?trace=<id> resolves
// it to a per-stage record.
func TestHTTPTraceHeaderAndDebugRequests(t *testing.T) {
	cfg := testConfig()
	cfg.Tracer = trace.New(0, 1024)
	e := newTestEngine(t, cfg)
	reg := obs.NewRegistry()
	h := Handler(e, reg)

	body, _ := json.Marshal(testRequest(6, 2))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/mlm", bytes.NewReader(body)))
	if rr.Code != http.StatusOK {
		t.Fatalf("POST /v1/mlm: %d %s", rr.Code, rr.Body.String())
	}
	tid := rr.Header().Get("X-Trace-Id")
	if _, ok := trace.ParseTraceID(tid); !ok {
		t.Fatalf("X-Trace-Id header %q invalid", tid)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/requests?trace="+tid, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /debug/requests?trace=: %d %s", rr.Code, rr.Body.String())
	}
	var rec RequestRecord
	if err := json.Unmarshal(rr.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.TraceID != tid || rec.TotalMS <= 0 {
		t.Fatalf("record %+v for trace %s", rec, tid)
	}

	// The full ring lists it too, newest first.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/requests", nil))
	var all []RequestRecord
	if err := json.Unmarshal(rr.Body.Bytes(), &all); err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 || all[0].TraceID != tid {
		t.Fatalf("ring %+v, want newest-first with %s", all, tid)
	}
}

// TestClientSuppliedTraceID: an X-Trace-Id request header is adopted,
// force-sampled, and echoed back.
func TestClientSuppliedTraceID(t *testing.T) {
	cfg := testConfig()
	cfg.Tracer = trace.New(0, 1024)
	cfg.Tracer.SetSampleEvery(0) // head sampling off: only forced ids record
	e := newTestEngine(t, cfg)
	h := Handler(e, obs.NewRegistry())

	const want = "00000000deadbeef"
	body, _ := json.Marshal(testRequest(6, 3))
	req := httptest.NewRequest(http.MethodPost, "/v1/mlm", bytes.NewReader(body))
	req.Header.Set("X-Trace-Id", want)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("POST: %d %s", rr.Code, rr.Body.String())
	}
	if got := rr.Header().Get("X-Trace-Id"); got != want {
		t.Fatalf("echoed trace id %q, want %q", got, want)
	}
	found := false
	for _, s := range cfg.Tracer.Spans() {
		if s.Trace.String() == want && s.Name == "request" {
			found = true
		}
	}
	if !found {
		t.Fatal("forced trace id did not record spans")
	}

	// Garbage header is a 400, not an adopted id.
	req = httptest.NewRequest(http.MethodPost, "/v1/mlm", bytes.NewReader(body))
	req.Header.Set("X-Trace-Id", "nope")
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad header got %d", rr.Code)
	}
}

// TestTracingOffStillAnswersTraceIDs: with no tracer configured the
// X-Trace-Id and /debug/requests contracts still hold — ids mint, the
// ring fills — while no spans exist anywhere.
func TestTracingOffStillAnswersTraceIDs(t *testing.T) {
	e := newTestEngine(t, testConfig())
	resp, err := e.Submit(testRequest(6, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := trace.ParseTraceID(resp.TraceID); !ok {
		t.Fatalf("trace id %q with tracing off", resp.TraceID)
	}
	if len(e.RecentRequests()) != 1 {
		t.Fatal("request log empty with tracing off")
	}
	if err := e.WriteTrace(nil); err == nil || !strings.Contains(err.Error(), "not enabled") {
		t.Fatalf("WriteTrace without tracer: %v", err)
	}
}

// TestQuantileGaugesAndExemplarPopulate: after traffic, the rolling
// latency gauges report and the latency histogram carries a trace-linked
// exemplar.
func TestQuantileGaugesAndExemplarPopulate(t *testing.T) {
	e := newTestEngine(t, testConfig())
	for i := 0; i < 4; i++ {
		if _, err := e.Submit(testRequest(6, i)); err != nil {
			t.Fatal(err)
		}
	}
	m, ok := obs.Default.Find("serve_latency_p50_ms")
	if !ok || m.Value <= 0 {
		t.Fatalf("p50 gauge %+v", m)
	}
	m, ok = obs.Default.Find("serve_latency_ms")
	if !ok || m.Exemplar == nil {
		t.Fatalf("latency histogram missing exemplar: %+v", m)
	}
	if _, idOK := trace.ParseTraceID(m.Exemplar.TraceID); !idOK {
		t.Fatalf("exemplar trace id %q", m.Exemplar.TraceID)
	}
}

// TestConcurrentBatchesKeepTheirKernels: with two batches in flight at
// once, each on its own runner, the exported timeline still links every
// request to its batch and every batch to its own kernel events: a batch
// span nests under a request span of its step, every kernel event carries
// the seq of a batch, and lies inside that batch's span.
func TestConcurrentBatchesKeepTheirKernels(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 1
	cfg.Tracer = trace.New(0, 4096)
	e := startEngine(t, cfg, 2, inFlightBarrier(2))
	var wg sync.WaitGroup
	for i := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Submit(testRequest(6+i, i)); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}()
	}
	wg.Wait()

	var buf bytes.Buffer
	if err := e.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var events []struct {
		Name  string            `json:"name"`
		Cat   string            `json:"cat"`
		Phase string            `json:"ph"`
		TS    float64           `json:"ts"`
		Dur   float64           `json:"dur"`
		Args  map[string]string `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace export not valid JSON: %v", err)
	}
	type window struct{ from, to float64 }
	requestStep := map[string]string{} // request span id → step
	batches := map[string]window{}     // step → batch span
	for _, ev := range events {
		if ev.Cat == "span" && ev.Name == "request" {
			requestStep[ev.Args["span"]] = ev.Args["step"]
		}
	}
	for _, ev := range events {
		if ev.Cat != "span" || ev.Name != "batch" {
			continue
		}
		step := ev.Args["step"]
		if requestStep[ev.Args["parent"]] != step {
			t.Errorf("batch %s nests under span %s, not under a request of its batch", step, ev.Args["parent"])
		}
		batches[step] = window{ev.TS, ev.TS + ev.Dur}
	}
	if len(batches) != 6 {
		t.Fatalf("%d batch spans, want 6", len(batches))
	}
	if b1, b2 := batches["1"], batches["2"]; b1.from >= b2.to || b2.from >= b1.to {
		t.Errorf("batches 1 and 2 at %v and %v did not overlap: the test ran them one after the other", b1, b2)
	}
	kernels := map[string]int{}
	const eps = 0.01 // µs: the export's rounding
	for _, ev := range events {
		if ev.Cat == "span" || ev.Phase != "X" {
			continue
		}
		step := ev.Args["iter"]
		w, ok := batches[step]
		if !ok {
			t.Fatalf("kernel %s carries iteration %s, no batch's seq", ev.Name, step)
		}
		if ev.TS < w.from-eps || ev.TS+ev.Dur > w.to+eps {
			t.Errorf("kernel %s of batch %s at [%.3f, %.3f] µs lies outside its batch [%.3f, %.3f]",
				ev.Name, step, ev.TS, ev.TS+ev.Dur, w.from, w.to)
		}
		kernels[step]++
	}
	for step := range batches {
		if kernels[step] == 0 {
			t.Errorf("batch %s has no kernel events", step)
		}
	}
}
