// OLTP example: reproduce the paper's headline TP result — snarfing
// eliminates the L3 retry storm of a transaction-processing workload
// whose working set thrashes the L3 (Table 5: 13.1% faster, 99% fewer
// L3-issued retries).
//
// The example also sweeps the memory-pressure knob (max outstanding
// misses per thread, the x-axis of Figures 2/5/7) to show where the
// mechanisms start paying off.
//
//	go run ./examples/oltp
package main

import (
	"fmt"
	"log"

	"cmpcache"
)

func main() {
	tr, err := cmpcache.GenerateWorkloadSized("tp", 30000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TP-like OLTP workload: %d references, %d threads\n\n", len(tr.Records), tr.Threads)
	src, err := cmpcache.NewMemSource(tr)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Memory-pressure sweep (baseline vs snarfing):")
	fmt.Println("outstanding | base cycles | snarf cycles | speedup | L3 retries base -> snarf")
	for _, outstanding := range []int{1, 2, 4, 6} {
		base := runWith(src, cmpcache.Baseline, outstanding)
		snarf := runWith(src, cmpcache.Snarf, outstanding)
		fmt.Printf("%11d | %11d | %12d | %+6.2f%% | %d -> %d (%.0f%% fewer)\n",
			outstanding, base.Cycles, snarf.Cycles,
			100*(float64(base.Cycles)-float64(snarf.Cycles))/float64(base.Cycles),
			base.L3RetriesIssued, snarf.L3RetriesIssued,
			100*(1-float64(snarf.L3RetriesIssued)/max1(base.L3RetriesIssued)))
	}

	base := runWith(src, cmpcache.Baseline, 6)
	snarf := runWith(src, cmpcache.Snarf, 6)
	fmt.Printf("\nAt 6 outstanding misses/thread:\n")
	fmt.Printf("  write backs snarfed by peers : %.1f%% of WB requests\n", snarf.PctWBSnarfed())
	fmt.Printf("  snarfed lines used locally   : %.1f%%\n", snarf.PctSnarfedUsedLocally())
	fmt.Printf("  snarfed lines -> interventions: %.1f%%\n", snarf.PctSnarfedInterventions())
	fmt.Printf("  off-chip accesses            : %d -> %d\n", base.OffChipAccesses(), snarf.OffChipAccesses())
	fmt.Printf("  local L2 hit rate            : %.2f%% -> %.2f%%\n",
		100*base.L2HitRate(), 100*snarf.L2HitRate())
}

func runWith(src cmpcache.TraceSource, m cmpcache.Mechanism, outstanding int) *cmpcache.Results {
	cfg := cmpcache.DefaultConfig().WithMechanism(m)
	cfg.MaxOutstanding = outstanding
	res, err := cmpcache.Run(cfg, src, cmpcache.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func max1(v uint64) float64 {
	if v == 0 {
		return 1
	}
	return float64(v)
}
