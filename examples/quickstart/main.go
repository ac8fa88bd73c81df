// Quickstart: simulate one workload on the baseline system and on the
// paper's two mechanisms, and compare execution time.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cmpcache"
)

func main() {
	// A modest synthetic Trade2-like trace keeps this example fast.
	tr, err := cmpcache.GenerateWorkloadSized("trade2", 30000)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload %s: %d references on %d threads\n\n",
		tr.Name, len(tr.Records), tr.Threads)
	// Split the trace per thread once; every run below replays it.
	src, err := cmpcache.NewMemSource(tr)
	if err != nil {
		log.Fatal(err)
	}

	var baseCycles uint64
	for _, m := range []cmpcache.Mechanism{
		cmpcache.Baseline, cmpcache.WBHT, cmpcache.Snarf, cmpcache.Combined,
	} {
		cfg := cmpcache.DefaultConfig().WithMechanism(m)
		res, err := cmpcache.Run(cfg, src, cmpcache.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		if m == cmpcache.Baseline {
			baseCycles = res.Cycles
		}
		improvement := 100 * (float64(baseCycles) - float64(res.Cycles)) / float64(baseCycles)
		fmt.Printf("%-9s %12d cycles  (%+.2f%% vs baseline)  L3 load hit %.1f%%  L3 retries %d\n",
			m, res.Cycles, improvement, 100*res.L3LoadHitRate(), res.L3RetriesIssued)
	}

	fmt.Println("\nFor the full paper reproduction, run: go run ./cmd/cmpbench -experiment all")
}
