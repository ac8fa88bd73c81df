// Retry-storm example: watch the WBHT's adaptive retry switch track an
// L3 retry storm in time, using the metrics probe's interval series and
// the latency collector's per-window quantiles.
//
// The TP workload at 6 outstanding misses per thread floods the L3's
// incoming queue with write backs; the rejected ones retry, and the
// paper's adaptive switch (Section 4) turns the Write Back History
// Table on only while the observed retry rate crosses its threshold —
// 2,000 retries per 1M cycles, which at the simulator's scaled window
// is RetryThreshold retries per RetryWindow cycles. Sampling the run at
// exactly that window makes the series line up with the switch's own
// decisions: the chart below shows the retry rate spiking, the switch
// engaging one window later, and the WBHT then thinning the storm.
//
// A windowed latency collector rides the same run at the same window,
// so each chart row also carries that window's write-back p99 — the
// queueing delay the storm inflicts — and a final per-stage table
// splits write-back latency by switch state to show where those cycles
// sit (the wb_queue and wb_retry stages) and how the stages move when
// the switch flips.
//
//	go run ./examples/retrystorm
//	go run ./examples/retrystorm -metrics-out series.json -trace-out storm.trace
//
// The -trace-out file is a Chrome trace_event JSON: open it at
// ui.perfetto.dev to see the same counters as zoomable tracks (use a
// .jsonl suffix for grep-able JSON Lines instead).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"cmpcache"
	"cmpcache/internal/metrics"
	"cmpcache/internal/stats"
)

func main() {
	metricsOut := flag.String("metrics-out", "", "write the interval series as JSON to this file")
	traceOut := flag.String("trace-out", "", "write a structured event trace (.jsonl = JSON Lines, else Chrome trace_event)")
	flag.Parse()

	tr, err := cmpcache.GenerateWorkloadSized("tp", 30000)
	if err != nil {
		log.Fatal(err)
	}
	src, err := cmpcache.NewMemSource(tr)
	if err != nil {
		log.Fatal(err)
	}

	cfg := cmpcache.DefaultConfig().WithMechanism(cmpcache.WBHT)
	cfg.MaxOutstanding = 6

	// Sample at the switch's own observation window so each row of the
	// series is one switch decision period; the latency collector bins
	// its quantiles at the same window so the two series line up row
	// for row.
	probe := cmpcache.NewMetricsProbe(cmpcache.MetricsConfig{Interval: cfg.WBHT.RetryWindow})
	lat := cmpcache.NewLatencyCollector(cmpcache.LatencyConfig{Interval: cfg.WBHT.RetryWindow})
	var tw *metrics.TraceWriter
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		tw = metrics.NewTraceWriter(f, metrics.FormatForPath(*traceOut))
		probe.SetTrace(tw)
	}

	res, err := cmpcache.Run(cfg, src, cmpcache.RunOptions{Probe: probe, Latency: lat})
	if err != nil {
		log.Fatal(err)
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("event trace: %s (%d records)\n", *traceOut, tw.Events())
	}
	if *metricsOut != "" {
		if err := writeJSON(*metricsOut, res.Metrics); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("interval series: %s (%d windows)\n", *metricsOut, len(res.Metrics.Samples))
	}

	fmt.Printf("TP workload, WBHT mechanism, %d outstanding misses/thread\n", cfg.MaxOutstanding)
	fmt.Printf("switch threshold: %d retries per %d-cycle window (the paper's 2,000 per 1M cycles)\n\n",
		cfg.WBHT.RetryThreshold, cfg.WBHT.RetryWindow)

	// Scale the bar chart to the stormiest window.
	var peak uint64 = 1
	for _, s := range res.Metrics.Samples {
		if s.WBRetried > peak {
			peak = s.WBRetried
		}
	}
	const width = 50
	threshCol := int(cfg.WBHT.RetryThreshold * width / peak)

	// The latency collector's windows align with the probe's samples by
	// construction (same interval, same engine); index them by window id
	// anyway so a missing final partial on either side cannot skew rows.
	wbP99 := map[int]float64{}
	if res.Latency != nil {
		for _, w := range res.Latency.Windows {
			wbP99[w.Window] = w.WriteBack.P99
		}
	}

	fmt.Println("window |   cycles | wb retries | switch | consults | wb p99")
	for _, s := range res.Metrics.Samples {
		bar := strings.Repeat("#", int(s.WBRetried*width/peak))
		// Mark the switch threshold inside the bar lane.
		lane := []byte(fmt.Sprintf("%-*s", width+1, bar))
		if threshCol < len(lane) && lane[threshCol] == ' ' {
			lane[threshCol] = '|'
		}
		state := "  off"
		if s.SwitchActive {
			state = "   ON"
		}
		fmt.Printf("%6d | %8d | %10d | %s  | %8d | %6.0f  %s\n",
			s.Window, s.End, s.WBRetried, state, s.WBHTConsults, wbP99[s.Window], lane)
	}

	fmt.Printf("\nrun total: %d cycles, %d write-back retries, switch active %d of %d windows\n",
		res.Cycles, res.WBRetried, res.SwitchActiveWindows, res.SwitchTotalWindows)
	fmt.Printf("WBHT: %d consults, %d write backs aborted (%.1f%% of consults)\n",
		res.WBHT.Consults, res.WBHT.Hits,
		100*float64(res.WBHT.Hits)/max1(res.WBHT.Consults))

	if res.Latency != nil {
		fmt.Println()
		fmt.Print(stageP99BySwitch(res.Latency))
	}
}

// stageP99BySwitch tabulates write-back per-stage p99 latency with the
// retry switch off versus on, pooling the write-back classes that occur
// in both states. The wb_queue and wb_retry rows are where the storm's
// queueing delay lives; the table shows how they move when the switch
// flips and the WBHT starts thinning the write-back stream.
func stageP99BySwitch(rep *cmpcache.LatencyReport) string {
	type cell struct{ off, on float64 }
	stages := map[string]*cell{}
	order := []string{}
	var totals cell
	for _, g := range rep.Groups {
		if !g.WriteBack {
			continue
		}
		for _, s := range g.Stages {
			c := stages[s.Stage]
			if c == nil {
				c = &cell{}
				stages[s.Stage] = c
				order = append(order, s.Stage)
			}
			// Keep the worst class per stage and state: the overlay is
			// about where delay can pool, not an average.
			if g.SwitchActive {
				if s.P99 > c.on {
					c.on = s.P99
				}
			} else if s.P99 > c.off {
				c.off = s.P99
			}
		}
		if g.SwitchActive {
			if g.Total.P99 > totals.on {
				totals.on = g.Total.P99
			}
		} else if g.Total.P99 > totals.off {
			totals.off = g.Total.P99
		}
	}
	t := stats.NewTable("Write-back stage p99 by retry-switch state (worst class per stage)",
		"stage", "switch off p99", "switch ON p99")
	for _, st := range order {
		t.AddRowf(st, stages[st].off, stages[st].on)
	}
	t.AddRowf("total", totals.off, totals.on)
	return t.Markdown()
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func max1(v uint64) float64 {
	if v == 0 {
		return 1
	}
	return float64(v)
}
