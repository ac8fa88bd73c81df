// Command cmpbench regenerates the paper's evaluation artifacts — every
// table (1, 2, 3, 4, 5) and figure (2, 3, 4, 5, 6, 7) of Section 5,
// plus the design-choice ablations listed in DESIGN.md — and prints
// paper-reported values beside measured ones.
//
// Usage:
//
//	cmpbench -experiment all                # full reproduction
//	cmpbench -experiment fig2               # one artifact
//	cmpbench -experiment table5 -csv        # machine-readable output
//	cmpbench -experiment all -quick         # reduced sweeps, small traces
//	cmpbench -experiment all -refs 100000   # longer traces, less warm-up
//	cmpbench -experiment all -workers 1     # serial runs, same output
//
// Each artifact's grid of independent simulation runs executes on the
// internal/sweep worker pool (GOMAXPROCS-wide by default); rendered
// artifacts are byte-identical at any -workers value.
//
// Absolute magnitudes are not expected to match the paper (its traces
// are proprietary, billions of references long); the shapes — which
// workload wins, where curves rise, signs and orderings — are the
// reproduction target. See EXPERIMENTS.md for the recorded comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cmpcache/internal/config"
	"cmpcache/internal/experiments"
	"cmpcache/internal/profiling"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "table1..table5, fig2..fig7, ablation, or all")
		refs       = flag.Int("refs", 0, "references per thread (0 = workload default)")
		quick      = flag.Bool("quick", false, "reduced sweeps and 10K-reference traces")
		csv        = flag.Bool("csv", false, "emit CSV instead of markdown")
		workers    = flag.Int("workers", 0, "concurrent simulation runs (0 = GOMAXPROCS)")
		verbose    = flag.Bool("v", false, "log each simulation run to stderr")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
		knobs      = config.RegisterKnobs(flag.CommandLine)
	)
	flag.Parse()
	if *refs < 0 {
		fmt.Fprintf(os.Stderr, "cmpbench: -refs = %d, must be >= 0\n", *refs)
		os.Exit(1)
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cmpbench: %v\n", err)
		os.Exit(1)
	}

	opts := experiments.Options{RefsPerThread: *refs, Quick: *quick, CSV: *csv, Workers: *workers, Overrides: *knobs}
	if *quick && *refs == 0 {
		opts.RefsPerThread = 10000
	}
	runner := experiments.NewRunner(opts)
	if *verbose {
		start := time.Now()
		runner.Progress = func(msg string) {
			fmt.Fprintf(os.Stderr, "[%7.1fs] %s\n", time.Since(start).Seconds(), msg)
		}
	}

	err = runner.Run(*experiment, os.Stdout)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cmpbench: %v\n", err)
		os.Exit(1)
	}
}
