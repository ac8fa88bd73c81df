// Command benchmark measures the repository's three programs end to end
// and layer by layer: cmpsim replays, cmpsweep grids and a cmpserved
// daemon under load. It builds the programs from the tree, generates its
// inputs from -seed, checks every output, and prints every metric with
// its unit; the last line of standard output is a JSON summary.
//
// Run it from the repository root through its wrapper, which keeps the
// build inside .bench_build/:
//
//	bash benchmark/run.sh -workload sim_trade2_base -seed 1 -seconds 30
//	bash benchmark/run.sh -workload serve_mixed -trace 1
//	bash benchmark/run.sh compare parent.jsonl change.jsonl
//
// See benchmark/README.md for the workloads, the metrics and the layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is the measuring time of one workload run. Thirty
// seconds spans five sweep grids or nine replays, and ten seeds of all
// four workloads still run in about twenty minutes.
const defaultSeconds = 30

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "calibrate":
			os.Exit(calibrateMain())
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one workload run, as -out stores it for compare.
type record struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"` // measuring time, -seconds
	Trace     int              `json:"trace"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func runMain(args []string) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "input seed: every capture seed and the serve operation sequence derive from it")
	seconds := fs.Float64("seconds", defaultSeconds, "measuring time of one workload run, in seconds; each record stores it and compare refuses to mix lengths")
	traceFlag := fs.Int("trace", 0, "1 = traced run: per-layer metrics, CPU profiles and spans instead of end-to-end metrics")
	out := fs.String("out", "", "append each workload run's record to this JSON Lines file, the input of compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	switch {
	case len(selected) == 0:
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want %s or all)\n", *name, strings.Join(names, ", "))
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintf(os.Stderr, "benchmark: -trace %d: want 0 or 1\n", *traceFlag)
		return 2
	case *seconds <= 0:
		fmt.Fprintf(os.Stderr, "benchmark: -seconds %v: want a positive time\n", *seconds)
		return 2
	}
	traced := *traceFlag == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	if err := buildTools(ctx, root, filepath.Join(build, "bin")); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	sum := summary{Correct: true, Metrics: make(map[string]value)}
	budget := time.Duration(*seconds * float64(time.Second))
	for _, w := range selected {
		rec, err := runWorkload(ctx, w, build, *seed, budget, traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		printRecord(os.Stdout, rec)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
		sum.Attempted += rec.Attempted
		sum.Failed += rec.Failed
		for _, n := range listed(traced) {
			key := n
			if len(selected) > 1 {
				key = w.name + "." + n
			}
			sum.Metrics[key] = rec.Metrics[n]
		}
	}
	sum.Correct = sum.Failed == 0
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// listed returns the metrics the summary line carries: those
// BENCHMARK.json lists for the untraced or the traced run.
func listed(traced bool) []string {
	var out []string
	if traced {
		for _, d := range perLayer() {
			out = append(out, d.Name)
		}
		return out
	}
	for _, d := range endToEnd {
		if !d.Unlisted {
			out = append(out, d.Name)
		}
	}
	return out
}

// runWorkload prepares a workload's inputs, times its set-up, and runs
// either its untraced pass or its traced run.
func runWorkload(ctx context.Context, w workload, build string, seed uint64, budget time.Duration, traced bool) (record, error) {
	work, err := os.MkdirTemp(build, w.name+"-")
	if err != nil {
		return record{}, err
	}
	defer os.RemoveAll(work)
	r := &runner{ctx: ctx, bin: filepath.Join(build, "bin"), work: work, seed: seed,
		digests: make(map[string][32]byte)}
	if traced {
		r.out = filepath.Join(build, "traced", fmt.Sprintf("%s-seed%d", w.name, seed))
		if err := os.RemoveAll(r.out); err != nil {
			return record{}, err
		}
		if err := os.MkdirAll(r.out, 0o755); err != nil {
			return record{}, err
		}
		r.spans = newSpanLog()
	}
	pl, err := w.prepare(r)
	if err != nil {
		return record{}, err
	}
	var setup []float64
	for range pl.setups {
		if err := ctx.Err(); err != nil {
			return record{}, err
		}
		r.attempt()
		d, err := pl.setup()
		if err != nil {
			r.fail("set-up: %v", err)
			continue
		}
		setup = append(setup, d.Seconds())
	}

	var metrics map[string]float64
	if !traced {
		var p pass
		r.cal = &calibrator{}
		if err := r.repeat(&p, budget, false, pl.rep); err != nil {
			return record{}, err
		}
		metrics = p.endToEnd(setup, r.cal.slowdown())
		r.attempt()
		if own, err := ownPeakRSS(); err != nil {
			r.fail("%v", err)
		} else if len(p.rss) > 0 && own >= slices.Min(p.rss) {
			r.fail("the benchmark's own peak RSS, %.1f MB, hides the program's (%.1f MB)", own, slices.Min(p.rss))
		}
	} else {
		// End-to-end numbers never come from here: the plain pass only
		// gives the traced pass a reference for its overhead.
		var plain, tr pass
		if err := r.repeat(&plain, budget*2/5, false, pl.rep); err != nil {
			return record{}, err
		}
		if err := r.repeat(&tr, budget*2/5, true, pl.rep); err != nil {
			return record{}, err
		}
		r.inprocess(pl.inproc, budget/5)
		if metrics, err = r.layerMetrics(&plain, &tr); err != nil {
			return record{}, err
		}
		if err := r.spans.write(filepath.Join(r.out, "spans.jsonl")); err != nil {
			return record{}, err
		}
	}

	units := map[string]string{"host_slowdown": "x"}
	for _, d := range endToEnd {
		units[d.Name] = d.Unit
	}
	for _, d := range perLayer() {
		units[d.Name] = d.Unit
	}
	for _, n := range listed(traced) {
		if _, ok := metrics[n]; !ok {
			metrics[n] = math.NaN()
		}
	}
	for n, v := range metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("%s: %s could not be measured", w.name, n)
			metrics[n] = 0
		}
	}
	metrics["failed_frac"] = float64(r.failed) / float64(max(r.attempted, 1))
	rec := record{Workload: w.name, Seed: seed, Seconds: budget.Seconds(), Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]value, len(metrics))}
	if traced {
		rec.Trace = 1
	}
	for n, v := range metrics {
		rec.Metrics[n] = value{v, units[n]}
	}
	return rec, nil
}

// printRecord prints one line per metric: workload, name, value, unit.
func printRecord(w io.Writer, rec record) {
	var order []string
	for _, d := range endToEnd {
		order = append(order, d.Name)
	}
	order = append(order, "host_slowdown")
	for _, d := range perLayer() {
		order = append(order, d.Name)
	}
	for _, n := range order {
		if v, ok := rec.Metrics[n]; ok {
			fmt.Fprintf(w, "%-16s %-36s %16.6g %s\n", rec.Workload, n, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(w, "%-16s %d of %d operations failed (seed %d)\n", rec.Workload, rec.Failed, rec.Attempted, rec.Seed)
}

// appendRecord appends rec as one JSON line to path.
func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
