// Benchmarks regenerating each of the paper's evaluation artifacts.
// Every BenchmarkTableN / BenchmarkFigN runs the corresponding
// experiment end to end on reduced traces (the -quick grid), reporting
// simulated cycles per artifact alongside wall time; run with
//
//	go test -bench=. -benchmem
//
// For the full-scale artifacts use cmd/cmpbench instead.
package cmpcache_test

import (
	"context"
	"io"
	"testing"

	"cmpcache"
	"cmpcache/internal/config"
	"cmpcache/internal/experiments"
	"cmpcache/internal/sweep"
)

const benchRefs = 4000 // per-thread references for benchmark-scale runs

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		runner := experiments.NewRunner(experiments.Options{
			RefsPerThread: benchRefs,
			Quick:         true,
		})
		if err := runner.Run(name, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }

// BenchmarkAblations covers the DESIGN.md design-choice ablations
// (retry-switch forcing, snarf insertion position, invalid-only
// victimization, combined tables).
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablation") }

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// references per second on the baseline Trade2-like workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	tr, err := cmpcache.GenerateWorkloadSized("trade2", benchRefs)
	if err != nil {
		b.Fatal(err)
	}
	src := memSource(b, tr)
	cfg := cmpcache.DefaultConfig()
	b.ResetTimer()
	var cycles, events uint64
	for i := 0; i < b.N; i++ {
		res, err := cmpcache.Run(cfg, src, cmpcache.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
		events += res.EventsFired
	}
	b.ReportMetric(float64(len(tr.Records)*b.N)/b.Elapsed().Seconds(), "refs/s")
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// benchSweepGrid runs a real multi-configuration grid (2 workloads x
// 3 mechanisms x 2 outstanding levels = 12 simulations) through the
// sweep orchestrator at a given worker count. Comparing the serial and
// parallel variants shows the orchestrator's wall-clock win on
// multi-core machines; results are identical by construction (see
// sweep.TestSimulationDeterministicAcrossWorkers).
func benchSweepGrid(b *testing.B, workers int) {
	b.Helper()
	jobs := sweep.Plan{
		Workloads:     []string{"tp", "trade2"},
		Mechanisms:    []config.Mechanism{config.Baseline, config.WBHT, config.Snarf},
		Outstanding:   []int{2, 6},
		RefsPerThread: 2000,
	}.Jobs()
	for i := 0; i < b.N; i++ {
		results := sweep.Run(context.Background(), jobs, sweep.Options{Workers: workers})
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.ReportMetric(float64(len(jobs)*b.N)/b.Elapsed().Seconds(), "sims/s")
}

func BenchmarkSweepGridSerial(b *testing.B)    { benchSweepGrid(b, 1) }
func BenchmarkSweepGridParallel4(b *testing.B) { benchSweepGrid(b, 4) }

// BenchmarkMechanismOverhead compares the wall cost of simulating each
// mechanism on the same trace (the adaptive structures should cost
// little simulation time).
func BenchmarkMechanismOverhead(b *testing.B) {
	tr, err := cmpcache.GenerateWorkloadSized("tp", benchRefs)
	if err != nil {
		b.Fatal(err)
	}
	src := memSource(b, tr)
	for _, m := range []cmpcache.Mechanism{
		cmpcache.Baseline, cmpcache.WBHT, cmpcache.Snarf, cmpcache.Combined,
	} {
		b.Run(m.String(), func(b *testing.B) {
			cfg := cmpcache.DefaultConfig().WithMechanism(m)
			for i := 0; i < b.N; i++ {
				if _, err := cmpcache.Run(cfg, src, cmpcache.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
