// Command traceinfo summarizes sharded trace directories: record and
// thread counts, operation mix, footprint, per-thread balance, gap
// statistics, shard layout and content hash. It streams each capture
// without materializing it.
//
// Usage:
//
//	traceinfo tp.cmps [more.cmps ...]
//	traceinfo -verify tp.cmps
package main

import (
	"flag"
	"fmt"
	"os"

	"cmpcache/internal/stats"
	"cmpcache/internal/trace"
)

func main() {
	lineBytes := flag.Int("line-bytes", 128, "cache line size for footprint accounting")
	verify := flag.Bool("verify", false, "re-hash sharded trace contents against the manifest")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: traceinfo [-line-bytes N] [-verify] <sharded trace dir>...")
		os.Exit(2)
	}
	exit := 0
	for _, path := range flag.Args() {
		if err := describe(path, *lineBytes, *verify); err != nil {
			fmt.Fprintf(os.Stderr, "traceinfo: %s: %v\n", path, err)
			exit = 1
		}
	}
	os.Exit(exit)
}

func describe(path string, lineBytes int, verify bool) error {
	sh, err := trace.OpenSharded(path)
	if err != nil {
		return err
	}
	defer sh.Close()
	if verify {
		if err := sh.Verify(); err != nil {
			return err
		}
	}
	s, err := trace.SummarizeSource(sh, lineBytes)
	if err != nil {
		return err
	}
	report(path, sh.Name(), sh.Threads(), s, lineBytes)
	man := sh.Manifest()
	fmt.Printf("  shards          %d (batch %d records)\n", len(man.Shards), man.BatchRecords)
	fmt.Printf("  content hash    %s\n", man.ContentHash())
	if verify {
		fmt.Printf("  verified        all shard hashes match\n")
	}
	return nil
}

func report(path, name string, threads int, s trace.Stats, lineBytes int) {
	fmt.Printf("%s:\n", path)
	fmt.Printf("  name            %s\n", name)
	fmt.Printf("  records         %d\n", s.Records)
	fmt.Printf("  threads         %d\n", threads)
	fmt.Printf("  loads           %d (%.1f%%)\n", s.Loads, stats.Percent(uint64(s.Loads), uint64(s.Records)))
	fmt.Printf("  stores          %d (%.1f%%)\n", s.Stores, stats.Percent(uint64(s.Stores), uint64(s.Records)))
	fmt.Printf("  ifetches        %d (%.1f%%)\n", s.Ifetches, stats.Percent(uint64(s.Ifetches), uint64(s.Records)))
	fmt.Printf("  distinct lines  %d (%.1f MB footprint)\n",
		s.DistinctLines, float64(s.FootprintBytes(lineBytes))/(1<<20))
	fmt.Printf("  mean gap        %.1f cycles\n", s.MeanGap)
	min, max := s.Records, 0
	for _, n := range s.PerThread {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	fmt.Printf("  refs/thread     min %d, max %d\n", min, max)
}
