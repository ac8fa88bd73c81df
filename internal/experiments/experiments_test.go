package experiments

import (
	"bytes"
	"strings"
	"testing"

	"cmpcache/internal/config"
	"cmpcache/internal/sweep"
)

// tinyRunner keeps experiment tests fast: short traces, trimmed grids.
func tinyRunner() *Runner {
	return NewRunner(Options{RefsPerThread: 1500, Quick: true})
}

func TestRunnerCachesResults(t *testing.T) {
	r := tinyRunner()
	runs := 0
	r.Progress = func(string) { runs++ }
	for i := 0; i < 2; i++ {
		if err := r.prefetch([]sweep.Job{baseJob("tp", 6)}); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 1 {
		t.Fatalf("cache miss: %d runs for identical job", runs)
	}
	if r.base("tp", 6) == nil {
		t.Fatal("prefetched baseline not cached")
	}
}

func TestRunnerDistinctKeysRunSeparately(t *testing.T) {
	r := tinyRunner()
	runs := 0
	r.Progress = func(string) { runs++ }
	jobs := []sweep.Job{
		baseJob("tp", 6),
		{Workload: "tp", Mechanism: config.WBHT, Outstanding: 6},
		{Workload: "tp", Mechanism: config.WBHT, Outstanding: 6, Knobs: config.Knobs{GlobalWBHT: true}},
		{Workload: "tp", Mechanism: config.WBHT, Outstanding: 6, Knobs: config.Knobs{WBHTEntries: 512}},
	}
	for _, j := range jobs {
		if err := r.prefetch([]sweep.Job{j}); err != nil {
			t.Fatal(err)
		}
		if r.result(j) == nil {
			t.Fatalf("%v: prefetched run not cached", j)
		}
	}
	if runs != len(jobs) {
		t.Fatalf("runs = %d, want %d", runs, len(jobs))
	}
}

func TestTable3PrintsIdentities(t *testing.T) {
	r := tinyRunner()
	var buf bytes.Buffer
	if err := r.Table3(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"20 cycles", "77 cycles", "167 cycles", "431 cycles"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 3 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	r := tinyRunner()
	var buf bytes.Buffer
	if err := r.Table1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"CPW2", "NotesBench", "TP", "Trade2"} {
		if !strings.Contains(out, name) {
			t.Fatalf("Table 1 missing %s:\n%s", name, out)
		}
	}
	// The paper reference values must appear.
	if !strings.Contains(out, "79.10") && !strings.Contains(out, "79.1") {
		t.Fatalf("Table 1 missing paper reference values:\n%s", out)
	}
}

func TestFigure2Shape(t *testing.T) {
	r := tinyRunner()
	var buf bytes.Buffer
	if err := r.Figure2(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "out=1") || !strings.Contains(out, "out=6") {
		t.Fatalf("Figure 2 missing sweep columns:\n%s", out)
	}
}

func TestCSVOutput(t *testing.T) {
	r := NewRunner(Options{RefsPerThread: 1500, Quick: true, CSV: true})
	var buf bytes.Buffer
	if err := r.Table3(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "|") {
		t.Fatal("CSV output contains markdown pipes")
	}
	if !strings.Contains(buf.String(), "Parameter,Paper,Simulated") {
		t.Fatalf("CSV header missing:\n%s", buf.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	r := tinyRunner()
	if err := r.Run("fig99", &bytes.Buffer{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestQuickGrids(t *testing.T) {
	quick := Options{Quick: true}
	if len(quick.outstanding()) >= len(OutstandingSweep) {
		t.Fatal("quick outstanding grid not reduced")
	}
	if len(quick.tableSizes()) >= len(TableSizeSweep) {
		t.Fatal("quick size grid not reduced")
	}
	full := Options{}
	if len(full.outstanding()) != 6 || len(full.tableSizes()) != 8 {
		t.Fatal("full grids wrong")
	}
}

// TestParallelRendersIdenticalArtifacts asserts that dispatching the
// experiment grid through the sweep pool cannot perturb the artifacts:
// a Runner at 1 worker and at 8 workers renders byte-identical output.
func TestParallelRendersIdenticalArtifacts(t *testing.T) {
	render := func(workers int) string {
		r := NewRunner(Options{RefsPerThread: 500, Quick: true, Workers: workers})
		var buf bytes.Buffer
		for _, name := range []string{"table1", "fig2"} {
			if err := r.Run(name, &buf); err != nil {
				t.Fatalf("workers=%d %s: %v", workers, name, err)
			}
		}
		return buf.String()
	}
	serial, parallel := render(1), render(8)
	if serial != parallel {
		t.Fatalf("artifacts differ across worker counts:\n--- workers=1\n%s\n--- workers=8\n%s", serial, parallel)
	}
}

// TestPrefetchDeduplicatesSharedBaselines asserts an artifact's shared
// baseline runs execute once even when prefetched as a batch.
func TestPrefetchDeduplicatesSharedBaselines(t *testing.T) {
	r := tinyRunner()
	runs := 0
	r.Progress = func(string) { runs++ }
	jobs := []sweep.Job{
		baseJob("tp", 6),
		baseJob("tp", 6),
		{Workload: "tp", Mechanism: config.WBHT, Outstanding: 6},
	}
	if err := r.prefetch(jobs); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("prefetch ran %d simulations, want 2", runs)
	}
	// A second prefetch of the same jobs is fully cached.
	if err := r.prefetch(jobs); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("cached prefetch reran simulations: %d", runs)
	}
}

func TestPrefetchReportsBadWorkload(t *testing.T) {
	r := tinyRunner()
	if err := r.prefetch([]sweep.Job{baseJob("bogus", 6)}); err == nil {
		t.Fatal("bogus workload accepted")
	}
}

// TestAllExperimentsProduceOutput smoke-tests every artifact end to end
// at tiny scale. This is the integration test for the whole harness.
func TestAllExperimentsProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness pass is not short")
	}
	r := NewRunner(Options{RefsPerThread: 800, Quick: true})
	for _, name := range Names {
		var buf bytes.Buffer
		if err := r.Run(name, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", name)
		}
	}
}
