package obs

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is a lifecycle-managed HTTP listener shared by the debug
// endpoint and the serving front-end: it binds synchronously (so the
// address is immediately curl-able), serves in the background, and — the
// part http.Server.Close gets wrong — can drain gracefully, letting
// in-flight requests finish instead of killing them mid-body. A scrape
// of /metrics or a served inference request that raced a shutdown used
// to see a truncated response; Shutdown fixes that.
type Server struct {
	// Addr is the address actually bound (useful when the requested
	// port was 0).
	Addr string

	ln  net.Listener
	srv *http.Server
}

// NewDebugMux returns the debug routing table serving reg:
//
//	/metrics       Prometheus text exposition of the registry
//	/debug/vars    expvar JSON (cmdline, memstats, published vars)
//	/debug/pprof/  pprof index, profile, heap, trace, ...
func NewDebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StartServer binds addr (e.g. "localhost:6060", or ":0" for an
// ephemeral port) and serves handler until Shutdown or Close. It
// returns once the listener is bound.
func StartServer(addr string, handler http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: http server listen %s: %w", addr, err)
	}
	s := &Server{
		Addr: ln.Addr().String(),
		ln:   ln,
		srv: &http.Server{
			Handler:           handler,
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go s.srv.Serve(ln)
	return s, nil
}

// StartDebugServer starts the in-process observability endpoint:
// Prometheus-text metrics, Go expvar, and net/http/pprof profiling on
// one listener — the live counterpart of rocProf's offline timelines,
// attachable to any running binary via the -debug-addr flag.
func StartDebugServer(addr string, reg *Registry) (*Server, error) {
	return StartServer(addr, NewDebugMux(reg))
}

// Shutdown stops accepting new connections and waits for in-flight
// handlers to complete, up to ctx's deadline. A scrape or inference
// request that is mid-response finishes its body; only after the drain
// (or the deadline) does the listener die. Returns ctx.Err() when the
// deadline expired with handlers still running.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

// ShutdownTimeout is Shutdown with a plain timeout instead of a caller
// context — the shape every cmd binary's signal handler wants.
func (s *Server) ShutdownTimeout(d time.Duration) error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// Close stops the listener and any in-flight handlers immediately.
// Prefer Shutdown; Close is the hard-stop escape hatch.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
