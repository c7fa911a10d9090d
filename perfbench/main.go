// Command perfbench is the repository benchmark. One invocation runs one
// named workload in-process, from a single process, against the library's
// public entry points (Matcher, ShardedMatcher, StreamServer). It checks
// every output against an oracle outside the timed region and prints, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// tracing off; with --trace 1 they are the per-layer metrics of a run that
// is half untraced and half traced. The line before it stamps the run with
// the machine fingerprint. README.md defines every workload and metric. Run
// it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured window, in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	spans := flag.String("spans", "", "file the traced run writes its spans to (default .bench_build/perfbench/<workload>-seed<seed>.json; - for none)")
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *traced == 1, spansOut: *spans}
	if cfg.trace && cfg.spansOut == "" {
		cfg.spansOut = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	}
	runtime.GOMAXPROCS(procs)
	res, fp, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]Fingerprint{"fingerprint": fp}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
