// Web-brokerage example: a Trade2-like workload whose working set
// cycles between the L2s and the L3 victim cache, making it the paper's
// biggest Write Back History Table winner (Figure 2) and its most
// table-size-sensitive application (Figure 4).
//
// The example runs the WBHT at several table sizes and shows how hit
// rate, aborted write backs and runtime respond — plus the effect of
// the Figure 3 global-allocation variant.
//
//	go run ./examples/webbroker
package main

import (
	"fmt"
	"log"

	"cmpcache"
)

func main() {
	tr, err := cmpcache.GenerateWorkloadSized("trade2", 30000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Trade2-like web brokerage: %d references, %d threads\n\n", len(tr.Records), tr.Threads)
	src, err := cmpcache.NewMemSource(tr)
	if err != nil {
		log.Fatal(err)
	}

	baseCfg := cmpcache.DefaultConfig()
	base, err := cmpcache.Run(baseCfg, src, cmpcache.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline: %d cycles, %d WB requests, %.1f%% of clean WBs already in L3\n\n",
		base.Cycles, base.WBRequests, base.PctCleanWBAlreadyInL3())

	fmt.Println("WBHT size sweep (Figure 4's axis):")
	fmt.Println("entries | cycles | vs base | WB requests | clean WBs aborted | correct")
	for _, entries := range []int{512, 2048, 8192, 32768} {
		cfg := cmpcache.DefaultConfig().WithMechanism(cmpcache.WBHT)
		cfg.WBHT.Entries = entries
		res, err := cmpcache.Run(cfg, src, cmpcache.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%7d | %6d | %+6.2f%% | %11d | %17d | %5.1f%%\n",
			entries, res.Cycles,
			100*(float64(base.Cycles)-float64(res.Cycles))/float64(base.Cycles),
			res.WBRequests, res.L2.CleanWBAborted, 100*res.WBHT.CorrectRate())
	}

	// Figure 3 variant: every L2 allocates on the combined response.
	cfg := cmpcache.DefaultConfig().WithMechanism(cmpcache.WBHT)
	cfg.WBHT.GlobalAllocate = true
	global, err := cmpcache.Run(cfg, src, cmpcache.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nglobal WBHT allocation (Figure 3): %d cycles, %d allocations\n",
		global.Cycles, global.WBHT.Allocations)
}
