// Extensions example: the paper's Section 7 future-work ideas,
// implemented and measurable.
//
//  1. Coarse-grained WBHT entries — "allow each entry in the table to
//     serve multiple cache lines, reducing the size of each entry and
//     providing greater coverage at the risk of increased prediction
//     errors." We sweep lines-per-entry at a fixed small table and watch
//     coverage (aborts) rise while prediction accuracy falls.
//
//  2. History-informed replacement — "new replacement algorithms that
//     take into account information contained in the history tables."
//     The L2 victim search prefers clean lines whose tags hit in the
//     WBHT: they are already in the L3, so evicting them costs neither a
//     write back nor, on re-reference, a memory access.
//
//     go run ./examples/extensions
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
	src, err := cmpcache.NewMemSource(tr)
	if err != nil {
		log.Fatal(err)
	}
	base, err := cmpcache.Run(cmpcache.DefaultConfig(), src, cmpcache.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Trade2-like workload, baseline %d cycles\n\n", base.Cycles)

	fmt.Println("Coarse WBHT entries (4K-entry table, forced on):")
	fmt.Println("lines/entry | aborts | correct | vs base")
	for _, gran := range []int{1, 2, 4, 8} {
		cfg := cmpcache.DefaultConfig().WithMechanism(cmpcache.WBHT)
		cfg.WBHT.Entries = 4096
		cfg.WBHT.SwitchEnabled = false
		cfg.WBHT.LinesPerEntry = gran
		res, err := cmpcache.Run(cfg, src, cmpcache.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%11d | %6d | %6.1f%% | %+.2f%%\n",
			gran, res.L2.CleanWBAborted, 100*res.WBHT.CorrectRate(),
			100*(float64(base.Cycles)-float64(res.Cycles))/float64(base.Cycles))
	}

	fmt.Println("\nHistory-informed L2 replacement (full-size WBHT):")
	for _, hist := range []bool{false, true} {
		cfg := cmpcache.DefaultConfig().WithMechanism(cmpcache.WBHT)
		cfg.WBHT.SwitchEnabled = false
		cfg.WBHT.HistoryReplacement = hist
		res, err := cmpcache.Run(cfg, src, cmpcache.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("history=%v: %d cycles (%+.2f%% vs base), %d informed victims, %d WBs aborted\n",
			hist, res.Cycles,
			100*(float64(base.Cycles)-float64(res.Cycles))/float64(base.Cycles),
			res.L2.HistoryVictims, res.L2.CleanWBAborted)
	}
}
