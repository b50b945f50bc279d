package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"demystbert/internal/obs"
)

// intList renders n copies of v as a JSON array.
func intList(n, v int) string {
	return "[" + strings.TrimSuffix(strings.Repeat(fmt.Sprint(v)+",", n), ",") + "]"
}

// FuzzMLMHandler fuzzes the one place external bytes enter the server: the
// /v1/mlm body. Whatever arrives, the handler answers 200, 400, 405, 413,
// 429 or 503 — never 500, which is what a panic in the single runner
// goroutine ("batch failed") turns into — and the engine answers a known
// request exactly as before.
func FuzzMLMHandler(f *testing.F) {
	cfg := testConfig()
	vocab, maxPos := cfg.Model.Vocab, cfg.Model.MaxPos
	for _, seed := range []string{
		`{"tokens": []}`,
		`{"tokens": [1, -1]}`,
		fmt.Sprintf(`{"tokens": [1, %d]}`, vocab),
		`{"tokens": [1]}`,
		`{"tokens": [1, 3, 17]}`,
		`{"tokens": ` + intList(maxPos, 3) + `}`,
		`{"tokens": ` + intList(maxPos+1, 3) + `}`,
		`{"tokens": [1, 3], "segments": [0]}`,
		`{"tokens": [1, 3], "segments": [0, 2]}`,
		`{"tokens": [1, 3], "segments": [0, 1]}`,
		`{"tokens": [1, 3], "bucket": 8}`,
		`{"tokens": [1, 3]} trailing garbage`,
		`{"tokens": [1, 3e0]}`,
		`{"tokens": [1, 99999999999999999999]}`,
		`{"tokens": null}`,
		`[1, 3]`,
		``,
		`{"tokens": ` + intList(1<<20, 3) + `}`, // 2 MiB body
	} {
		f.Add([]byte(seed), true)
	}
	f.Add([]byte(`{"tokens": [1, 3]}`), false)

	e, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(e.Close)
	h := Handler(e, obs.NewRegistry())
	send := func(method string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, "/v1/mlm", bytes.NewReader(body)))
		return w
	}
	good, _ := json.Marshal(testRequest(9, 1))
	predictions := func(t testing.TB) []Prediction {
		w := send(http.MethodPost, good)
		var resp Response
		if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &resp) != nil || len(resp.Predictions) != 1 {
			t.Fatalf("known-good request: HTTP %d %s", w.Code, w.Body)
		}
		return resp.Predictions
	}
	want := predictions(f)

	f.Fuzz(func(t *testing.T, body []byte, post bool) {
		method := http.MethodPost
		if !post {
			method = http.MethodGet
		}
		w := send(method, body)
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusMethodNotAllowed,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Errorf("HTTP %d: %s", w.Code, w.Body)
		}
		if w.Code == http.StatusOK {
			// An answered request was well-formed: it decodes again, and
			// every [MASK] it carried has its prediction.
			var req Request
			var resp Response
			if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil || json.Unmarshal(w.Body.Bytes(), &resp) != nil {
				t.Fatalf("200 for a body that does not decode, or with a reply that does not: %s", w.Body)
			}
			if positions, err := e.validate(&req); err != nil || len(positions) != len(resp.Predictions) {
				t.Errorf("200 with %d predictions for a request validate answers (%v, %v)", len(resp.Predictions), positions, err)
			}
		}
		if got := predictions(t); !reflect.DeepEqual(got, want) {
			t.Errorf("known-good request answered %v after this input, %v before", got, want)
		}
	})
}
