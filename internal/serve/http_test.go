package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"demystbert/internal/data"
	"demystbert/internal/obs"
)

// postMLM sends one request to a running server and decodes the reply.
func postMLM(t *testing.T, base string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/mlm", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatalf("POST /v1/mlm: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

func startTestServer(t *testing.T, cfg Config) (*Engine, string) {
	t.Helper()
	e, srv, err := Start(cfg, "localhost:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		srv.ShutdownTimeout(5 * time.Second)
		e.Close()
	})
	return e, "http://" + srv.Addr
}

// TestServeSmokeAllPaths is the serving smoke: a live HTTP server must
// answer tokenized requests with 200s and non-empty predictions, and
// expose the serving metrics on the same port.
func TestServeSmokeAllPaths(t *testing.T) {
	t.Run("f32", func(t *testing.T) {
		cfg := testConfig()
		_, base := startTestServer(t, cfg)

		for i := 0; i < 4; i++ {
			body, _ := json.Marshal(testRequest(5+3*i, i))
			resp, raw := postMLM(t, base, string(body))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("request %d: HTTP %d: %s", i, resp.StatusCode, raw)
			}
			var r Response
			if err := json.Unmarshal(raw, &r); err != nil {
				t.Fatalf("request %d: bad JSON %q: %v", i, raw, err)
			}
			if len(r.Predictions) == 0 {
				t.Fatalf("request %d: empty predictions: %s", i, raw)
			}
			for _, p := range r.Predictions {
				if p.Token < 0 || p.Token >= cfg.Model.Vocab {
					t.Fatalf("request %d: token %d outside vocab", i, p.Token)
				}
			}
		}

		hr, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		mb, _ := io.ReadAll(hr.Body)
		hr.Body.Close()
		if !bytes.Contains(mb, []byte("serve_requests_total")) {
			t.Error("metrics endpoint missing serve_requests_total")
		}
	})
}

// TestHTTPErrors: status-code mapping for the admission error taxonomy.
func TestHTTPErrors(t *testing.T) {
	e, base := startTestServer(t, testConfig())

	resp, _ := postMLM(t, base, `{"tokens": [1, 3, 9999]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-vocab token: HTTP %d, want 400", resp.StatusCode)
	}
	resp, _ = postMLM(t, base, `not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: HTTP %d, want 400", resp.StatusCode)
	}
	resp, _ = postMLM(t, base, `{"tokens": [1, 3], "unknown_field": 1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: HTTP %d, want 400", resp.StatusCode)
	}
	hr, err := http.Get(base + "/v1/mlm")
	if err != nil {
		t.Fatalf("GET /v1/mlm: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: HTTP %d, want 405", hr.StatusCode)
	}
	// Past the 1 MiB body limit the answer is 413, not a decode error. A
	// recorder, not the socket: the server hangs up on the unread half.
	w := httptest.NewRecorder()
	big := strings.NewReader(`{"tokens": ` + intList(1<<20, 3) + `}`)
	Handler(e, obs.NewRegistry()).ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/mlm", big))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("2 MiB body: HTTP %d, want 413", w.Code)
	}
}

// TestHealthzDraining: /healthz flips from 200 to 503 once the engine
// begins draining, so load balancers stop routing before requests fail.
func TestHealthzDraining(t *testing.T) {
	e, base := startTestServer(t, testConfig())
	hr, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthy server: HTTP %d, want 200", hr.StatusCode)
	}
	e.Close()
	hr, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz after Close: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining server: HTTP %d, want 503", hr.StatusCode)
	}
	resp, _ := postMLM(t, base, `{"tokens": [1, 3]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("Submit while draining: HTTP %d, want 503", resp.StatusCode)
	}
}

// TestLoadgenAgainstEngine: the open-loop generator drives the engine
// in-process, succeeds on every request at a modest rate, and reports a
// sane latency distribution.
func TestLoadgenAgainstEngine(t *testing.T) {
	e := newTestEngine(t, testConfig())
	spec := LoadSpec{
		Rate: 300, Duration: 500 * time.Millisecond,
		MinLen: 5, MaxLen: 14, MaskFrac: 0.15,
		Vocab: e.cfg.Model.Vocab, Seed: 11,
	}
	res := RunLoad(spec, e.Submit)
	if res.OK == 0 {
		t.Fatalf("no request succeeded: %+v", res)
	}
	if res.Failed > 0 {
		t.Errorf("%d requests failed", res.Failed)
	}
	if res.P50MS <= 0 || res.P99MS < res.P50MS || res.MaxMS < res.P99MS {
		t.Errorf("implausible latency distribution: p50=%.3f p99=%.3f max=%.3f", res.P50MS, res.P99MS, res.MaxMS)
	}
	if res.GoodputTPS <= 0 {
		t.Errorf("goodput %.1f, want > 0", res.GoodputTPS)
	}
}

// checksumConcurrent submits reqs with many concurrent workers (so the
// scheduler actually coalesces them into multi-request batches) and
// folds per-request predictions in request order — comparable against a
// serial PredictionChecksum of the same set.
func checksumConcurrent(reqs []*Request, target Target, workers int) (uint64, error) {
	resps := make([]*Response, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range reqs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			resps[i], errs[i] = target(reqs[i])
		}(i)
	}
	wg.Wait()
	i := -1
	return PredictionChecksum(reqs, func(*Request) (*Response, error) {
		i++
		return resps[i], errs[i]
	})
}

// TestBatchedMatchesSerialPredictions is the equal-accuracy leg of the
// goodput criterion: the same request set through a concurrently-driven
// batching engine and a serial MaxBatch=1 engine on identical weights
// must predict identical tokens.
func TestBatchedMatchesSerialPredictions(t *testing.T) {
	spec := LoadSpec{MinLen: 5, MaxLen: 14, MaskFrac: 0.2, Vocab: 1000, Seed: 3}
	spec.setDefaults()
	reqs := spec.GenRequests(96)

	cfg := testConfig()
	eb := newTestEngine(t, cfg)
	batched, err := checksumConcurrent(reqs, eb.Submit, 32)
	if err != nil {
		t.Fatalf("batched run: %v", err)
	}
	eb.Close()

	serialCfg := testConfig()
	serialCfg.MaxBatch = 1
	es := newTestEngine(t, serialCfg)
	serial, err := PredictionChecksum(reqs, es.Submit)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	if batched != serial {
		t.Errorf("batched checksum %x != serial %x: dynamic batching changed predictions", batched, serial)
	}
}

// TestGenRequestsDeterministic: the synthetic stream is reproducible and
// well-formed (CLS first, ≥1 mask, ids in vocab).
func TestGenRequestsDeterministic(t *testing.T) {
	spec := LoadSpec{MinLen: 5, MaxLen: 16, MaskFrac: 0.15, Vocab: 1000, Seed: 9}
	spec.setDefaults()
	a, b := spec.GenRequests(50), spec.GenRequests(50)
	for i := range a {
		if fmt.Sprint(a[i].Tokens) != fmt.Sprint(b[i].Tokens) {
			t.Fatalf("request %d differs between identical specs", i)
		}
		toks := a[i].Tokens
		if toks[0] != 1 {
			t.Fatalf("request %d does not start with CLS", i)
		}
		masks := 0
		for _, id := range toks {
			if id < 0 || id >= 1000 {
				t.Fatalf("request %d: token %d outside vocab", i, id)
			}
			if id == 3 {
				masks++
			}
		}
		if masks == 0 {
			t.Fatalf("request %d has no mask", i)
		}
	}
}

// TestGenRequestsLengthOne: a spec that draws 1-token requests (bertserve
// -loadgen -min-len 1) used to panic choosing a mask position among zero
// words; a lone [CLS] is a legal request and is emitted unmasked.
func TestGenRequestsLengthOne(t *testing.T) {
	spec := LoadSpec{MinLen: 1, MaxLen: 2, MaskFrac: 0.15, Vocab: 1000, Seed: 4}
	spec.setDefaults()
	ones := 0
	for i, r := range spec.GenRequests(64) {
		switch len(r.Tokens) {
		case 1:
			ones++
			if r.Tokens[0] != data.ClsID {
				t.Fatalf("request %d: 1-token request is %v, want a lone [CLS]", i, r.Tokens)
			}
		case 2:
			if r.Tokens[1] != data.MaskID {
				t.Fatalf("request %d: %v has no mask", i, r.Tokens)
			}
		default:
			t.Fatalf("request %d: length %d outside [1, 2]", i, len(r.Tokens))
		}
	}
	if ones == 0 {
		t.Fatal("spec drew no 1-token request; the test covers nothing")
	}
}
