// Command bertdist runs real multi-process data-parallel training over
// loopback TCP (internal/distnet):
//
//	bertdist -launch 2 -steps 6            # fork 2 worker processes
//	bertdist -rank 0 -world 2 -addr H:P    # one worker, manual rendezvous
//
// The modeled multi-device profiles (Fig. 11, custom data-parallel,
// ZeRO and tensor-slicing setups) are bertchar's: bertchar -artifact
// fig11, bertchar -dp D, bertchar -ts M. -debug-addr serves the runtime
// counter registry (the distnet_* counters of a -world rank included),
// expvar, and pprof.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"demystbert/internal/obs"
	"demystbert/internal/runutil"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bertdist", flag.ContinueOnError)
	fs.SetOutput(stderr)
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address")
	var tf trainFlags
	tf.register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if tf.launch == 0 && tf.world == 0 {
		fmt.Fprintln(stderr, "bertdist: give -launch N or -world N; the modeled profiles are bertchar's (bertchar -artifact fig11, -dp D, -ts M)")
		return 2
	}

	// Signal-safe cleanup: SIGINT/SIGTERM drains the debug server and
	// the launched workers instead of leaving orphans.
	sd := runutil.Install(stderr)
	defer sd.Drain()

	if *debugAddr != "" {
		srv, err := obs.StartDebugServer(*debugAddr, obs.Default)
		if err != nil {
			fmt.Fprintf(stderr, "bertdist: %v\n", err)
			return 2
		}
		sd.Defer("debug server", func() { srv.ShutdownTimeout(2 * time.Second) })
		fmt.Fprintf(stdout, "debug server: http://%s/metrics\n", srv.Addr)
	}

	if tf.launch > 0 {
		return launchLocal(&tf, stdout, stderr, sd)
	}
	return trainWorker(&tf, stdout, stderr, sd)
}
