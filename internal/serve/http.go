package serve

import (
	"encoding/json"
	"errors"
	"net/http"

	"demystbert/internal/obs"
	"demystbert/internal/trace"
)

// HTTP front-end for the engine. One POST endpoint accepts a tokenized
// request and blocks until its dynamic batch completes; the obs debug
// surface (metrics text + JSON, pprof) is mounted alongside so a single
// port exposes both the service and its telemetry.
//
//	POST /v1/mlm      {"tokens": [...], "segments": [...]} -> Response
//	GET  /healthz     200 "ok" while serving, 503 while draining
//	GET  /metrics     obs registry (plus /metrics.json, /debug/pprof/*)
//	GET  /debug/requests   recent requests, per-stage latency breakdown
//
// Every answered /v1/mlm response carries an X-Trace-Id header; sending
// the same header on a request adopts (and force-samples) that id, so a
// client can stitch its own ids through the scheduler. The id keys into
// /debug/requests (?trace=<id> filters to one request) and into the
// span/kernel timeline a traced engine exports via Engine.WriteTrace.

type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the serving mux for the engine, with the debug
// endpoints of reg (typically obs.Default) mounted alongside.
func Handler(e *Engine, reg *obs.Registry) http.Handler {
	mux := obs.NewDebugMux(reg)
	mux.HandleFunc("/v1/mlm", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req Request
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			reqsRejected.Inc()
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeErr(w, http.StatusRequestEntityTooLarge, err.Error())
				return
			}
			writeErr(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
			return
		}
		if h := r.Header.Get("X-Trace-Id"); h != "" {
			id, ok := trace.ParseTraceID(h)
			if !ok {
				writeErr(w, http.StatusBadRequest, "X-Trace-Id must be 16 hex digits")
				return
			}
			req.TraceID = id
		}
		resp, err := e.Submit(&req)
		if err != nil {
			var bad *BadRequestError
			switch {
			case errors.As(err, &bad):
				writeErr(w, http.StatusBadRequest, err.Error())
			case errors.Is(err, ErrOverloaded):
				// Backpressure: the client should retry with backoff;
				// admitting more work would only grow queue wait.
				writeErr(w, http.StatusTooManyRequests, err.Error())
			case errors.Is(err, ErrDraining):
				writeErr(w, http.StatusServiceUnavailable, err.Error())
			default:
				writeErr(w, http.StatusInternalServerError, err.Error())
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Trace-Id", resp.TraceID)
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if q := r.URL.Query().Get("trace"); q != "" {
			id, ok := trace.ParseTraceID(q)
			if !ok {
				writeErr(w, http.StatusBadRequest, "trace must be 16 hex digits")
				return
			}
			rec, found := e.FindRequest(id)
			if !found {
				writeErr(w, http.StatusNotFound, "trace not in the recent-requests ring")
				return
			}
			json.NewEncoder(w).Encode(rec)
			return
		}
		json.NewEncoder(w).Encode(e.RecentRequests())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		e.mu.RLock()
		closed := e.closed
		e.mu.RUnlock()
		if closed {
			writeErr(w, http.StatusServiceUnavailable, "draining")
			return
		}
		w.Write([]byte("ok\n"))
	})
	return mux
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

// Start builds an engine from cfg and serves it on addr (":0" picks a
// free port). Shut down by first obs.Server.Shutdown (drain in-flight
// HTTP), then Engine.Close (answer everything admitted).
func Start(cfg Config, addr string) (*Engine, *obs.Server, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	srv, err := obs.StartServer(addr, Handler(e, obs.Default))
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	return e, srv, nil
}
