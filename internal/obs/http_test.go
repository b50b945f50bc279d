package obs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDebugServerSmoke starts the debug server on an ephemeral port and
// asserts every mounted endpoint responds — the CI smoke test that a
// binary run with -debug-addr is actually observable.
func TestDebugServerSmoke(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("smoke_total", "smoke counter").Add(5)
	s, err := StartDebugServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + s.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body)
	}

	if body := get("/metrics"); !strings.Contains(body, "smoke_total 5") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars missing memstats:\n%.200s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "profile") {
		t.Errorf("/debug/pprof/ index malformed:\n%.200s", body)
	}
}

func TestDebugServerBadAddr(t *testing.T) {
	if _, err := StartDebugServer("256.256.256.256:1", NewRegistry()); err == nil {
		t.Fatal("bad address must error")
	}
}

func TestDebugServerCloseNil(t *testing.T) {
	var s *Server
	if err := s.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("nil Shutdown: %v", err)
	}
	if err := s.ShutdownTimeout(time.Second); err != nil {
		t.Fatalf("nil ShutdownTimeout: %v", err)
	}
}

// TestServerShutdownDrainsInFlight pins the graceful drain contract: a
// request whose handler is still writing when Shutdown is called
// completes with its full body, and Shutdown returns only after the
// handler finished. (http.Server.Close — the old behavior — kills the
// connection mid-body.)
func TestServerShutdownDrainsInFlight(t *testing.T) {
	inHandler := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(inHandler)
		<-release
		fmt.Fprint(w, "complete-body")
	})
	s, err := StartServer("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}

	type getResult struct {
		body string
		err  error
	}
	got := make(chan getResult, 1)
	go func() {
		resp, err := http.Get("http://" + s.Addr + "/slow")
		if err != nil {
			got <- getResult{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- getResult{body: string(body), err: err}
	}()

	<-inHandler // request is now in flight
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.ShutdownTimeout(5 * time.Second) }()

	// Shutdown must block while the handler runs.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) before the in-flight handler finished", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request failed across Shutdown: %v", r.err)
	}
	if r.body != "complete-body" {
		t.Fatalf("in-flight response truncated: %q", r.body)
	}

	// New connections are refused after the drain.
	if _, err := http.Get("http://" + s.Addr + "/slow"); err == nil {
		t.Fatal("request after Shutdown should fail")
	}
}
