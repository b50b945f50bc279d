package main

import (
	"encoding/json"
	"strings"
	"testing"

	"demystbert/internal/serve"
)

func runCmd(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

func TestFlagErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"removed gemm path":    {"-gemm-path", "fused"},
		"removed bench mode":   {"-bench"},
		"removed buckets":      {"-buckets", "8,16"},
		"removed max delay":    {"-max-delay", "2ms"},
		"removed int8":         {"-int8"},
		"loadgen needs target": {"-loadgen"},
	} {
		if _, _, code := runCmd(t, args...); code != 2 {
			t.Errorf("%s: exit code %d, want 2", name, code)
		}
	}
}

// TestLoadgenAgainstLiveServer starts a real server on an ephemeral
// port and drives it over HTTP with the loadgen Target adapter.
func TestLoadgenAgainstLiveServer(t *testing.T) {
	ecfg := serve.Config{}
	ecfg.Model.Vocab, ecfg.Model.MaxPos = 1000, 64
	ecfg.Model.NumLayers, ecfg.Model.DModel, ecfg.Model.Heads, ecfg.Model.DFF = 2, 64, 4, 256
	ecfg.Seed = 42
	engine, srv, err := serve.Start(ecfg, "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	defer srv.Close()

	var out, errOut strings.Builder
	code := run([]string{
		"-loadgen", "-target", "http://" + srv.Addr,
		"-rate", "100", "-duration", "300ms",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	var res serve.LoadResult
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
		t.Fatalf("loadgen output not JSON: %v\n%s", err, out.String())
	}
	if res.OK == 0 || res.Failed > 0 {
		t.Errorf("loadgen result ok=%d failed=%d: %+v", res.OK, res.Failed, res)
	}
}
