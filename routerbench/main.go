// Command routerbench drives a real eisr.Router through one named
// traffic workload, checks every packet the router delivers, and prints
// the run's metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; the line
// before it records the environment, the failure breakdown and the
// attribution of lost packets to layers.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash routerbench/run.sh --workload hit64 --seed 1 --seconds 20 --trace 0
//
// --trace 0 is the timed run and reports the end-to-end metrics;
// --trace 1 is the traced run and reports the per-layer metrics. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed for flows, filters, FIB and churn sequence")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	workDir := flag.String("workdir", ".bench_build", "directory for the run's scratch files")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "routerbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(config{
		workload: *workload, seed: *seed, seconds: float64(*seconds),
		trace: *trace == 1, workDir: *workDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "routerbench: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(res.detail); err != nil {
		fmt.Fprintf(os.Stderr, "routerbench: %v\n", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "routerbench: %v\n", err)
		os.Exit(1)
	}
}
