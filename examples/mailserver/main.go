// Mail-server example: a NotesBench-like workload whose memory demand
// is low. It demonstrates the paper's Section 2.2 safety mechanism: the
// WBHT's retry-rate switch keeps the table dormant when there is no
// contention to relieve, because aborting clean write backs without
// contention only risks turning future L3 hits into memory misses.
//
// The example contrasts the adaptive switch against a WBHT forced
// always-on, and shows a custom workload profile being built through
// the public API.
//
//	go run ./examples/mailserver
package main

import (
	"fmt"
	"log"

	"cmpcache"
)

func main() {
	// Start from the built-in NotesBench profile and trim it for a quick
	// run — profiles are plain data and can be customized freely.
	p, err := cmpcache.WorkloadByName("notesbench")
	if err != nil {
		log.Fatal(err)
	}
	p.RefsPerThread = 40000
	tr, err := p.Generate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("NotesBench-like mail server: %d references, mean gap %.0f cycles\n\n",
		len(tr.Records), p.MeanGap)
	src, err := cmpcache.NewMemSource(tr)
	if err != nil {
		log.Fatal(err)
	}

	base := run(src, func(cfg *cmpcache.Config) {})
	adaptive := run(src, func(cfg *cmpcache.Config) {
		*cfg = cfg.WithMechanism(cmpcache.WBHT)
	})
	forced := run(src, func(cfg *cmpcache.Config) {
		*cfg = cfg.WithMechanism(cmpcache.WBHT)
		cfg.WBHT.SwitchEnabled = false // always consult the table
	})

	fmt.Printf("%-22s %12s %14s %10s %12s\n", "configuration", "cycles", "clean aborts", "L3 hit", "mem fills")
	for _, row := range []struct {
		name string
		r    *cmpcache.Results
	}{
		{"baseline", base},
		{"WBHT (adaptive)", adaptive},
		{"WBHT (forced on)", forced},
	} {
		fmt.Printf("%-22s %12d %14d %9.1f%% %12d\n",
			row.name, row.r.Cycles, row.r.L2.CleanWBAborted,
			100*row.r.L3LoadHitRate(), row.r.FillsFromMem)
	}

	fmt.Printf("\nretry switch: active in %d of %d windows (low pressure keeps it off)\n",
		adaptive.SwitchActiveWindows, adaptive.SwitchTotalWindows)
	fmt.Println("With the switch, the table stays maintained but unconsulted, so the")
	fmt.Println("adaptive run tracks the baseline; forcing it on aborts clean write")
	fmt.Println("backs and can cost L3 hits with nothing to gain at this load.")
}

func run(src cmpcache.TraceSource, mutate func(*cmpcache.Config)) *cmpcache.Results {
	cfg := cmpcache.DefaultConfig()
	mutate(&cfg)
	res, err := cmpcache.Run(cfg, src, cmpcache.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	return res
}
