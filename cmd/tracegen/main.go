// Command tracegen synthesizes a workload trace and writes it as a
// sharded trace directory (batched, compressed, manifest-indexed; see
// DESIGN.md §17), the one on-disk trace format, which cmpsim, cmpsweep
// and cmpserved replay with bounded memory and traceinfo summarizes.
// The raw reference stream can optionally pass through the per-core L1
// filter first (mirroring how the paper's L2-traffic traces were
// captured on real machines).
//
// Usage:
//
//	tracegen -workload tp
//	tracegen -workload trade2 -refs 100000 -l1-filter -o trade2.cmps
//	tracegen -workload tp -shards 8 -batch-records 1024 -o tp.cmps
package main

import (
	"flag"
	"fmt"
	"os"

	"cmpcache/internal/config"
	"cmpcache/internal/cpu"
	"cmpcache/internal/trace"
	"cmpcache/internal/workload"
)

func main() {
	var (
		name     = flag.String("workload", "trade2", "built-in workload: tp, cpw2, notesbench, trade2")
		out      = flag.String("o", "", "output directory (default <workload>.cmps)")
		refs     = flag.Int("refs", 0, "references per thread (unset = profile default; an explicit 0 is honored)")
		seed     = flag.Uint64("seed", 0, "override the profile's seed (unset = profile default; an explicit 0 is honored)")
		l1Filter = flag.Bool("l1-filter", false, "filter the stream through per-core L1 caches")
		shards   = flag.Int("shards", trace.DefaultShards, "shard files in the trace directory")
		batchRec = flag.Int("batch-records", 0, "records per compressed batch (0 = default)")
	)
	flag.Parse()

	if *shards < 1 {
		fatalf("-shards must be >= 1")
	}

	p, err := workload.ByName(*name)
	if err != nil {
		fatalf("%v", err)
	}
	// Explicit-value detection, not zero-sentinels: `-refs 0` and
	// `-seed 0` are real requests (an empty trace, the zero seed), so
	// only flags actually given on the command line override.
	if config.Explicit(flag.CommandLine, "refs") {
		if *refs < 0 {
			fatalf("-refs must be >= 0")
		}
		p.RefsPerThread = *refs
	}
	if config.Explicit(flag.CommandLine, "seed") {
		p.Seed = *seed
	}
	tr, err := p.Generate()
	if err != nil {
		fatalf("%v", err)
	}
	cfg := config.Default()
	if *l1Filter {
		tr = cpu.FilterTrace(&cfg, tr)
	}

	path := *out
	if path == "" {
		path = p.Name + ".cmps"
	}
	man, err := trace.WriteSharded(path, tr, trace.ShardOptions{
		Shards:       *shards,
		BatchRecords: *batchRec,
	})
	if err != nil {
		fatalf("writing %s: %v", path, err)
	}
	printSummary(path, tr, cfg.LineBytes)
	fmt.Printf("sharded into %d files, content hash %s\n", len(man.Shards), man.ContentHash())
}

// printSummary reports the written trace's shape. One line size drives
// both the distinct-line count and the footprint figure.
func printSummary(path string, tr *trace.Trace, lineBytes int) {
	s := tr.Summarize(lineBytes)
	fmt.Printf("wrote %s: %d records, %d threads, %d distinct lines (%.1f MB footprint), mean gap %.1f\n",
		path, s.Records, tr.Threads, s.DistinctLines,
		float64(s.FootprintBytes(lineBytes))/(1<<20), s.MeanGap)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(1)
}
