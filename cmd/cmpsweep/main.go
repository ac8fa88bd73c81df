// Command cmpsweep runs a grid of simulation configurations on the
// parallel sweep orchestrator (internal/sweep) and reports the results
// as a table, JSON or CSV.
//
// Usage:
//
//	cmpsweep -workloads tp,trade2 -mechanisms base,wbht -outstanding 1-6
//	cmpsweep -mechanisms snarf -table-sizes 512,2048,8192,32768 -workers 8
//	cmpsweep -workloads all -mechanisms all -outstanding 6 -json out.json
//	cmpsweep -traces tp.cmps -mechanisms all -outstanding 1-6
//
// The workload axis mixes built-in synthetic profiles (-workloads) with
// captured traces (-traces: sharded trace directories written by
// tracegen, replayed as bounded-memory streams and cached by content).
//
// The grid is the cross product of the axes. Every job is an
// independent deterministic simulation, so exports are byte-identical
// at any -workers value; a configuration that fails (or panics, or
// exceeds -timeout) reports an error row without stopping the sweep.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cmpcache/internal/config"
	"cmpcache/internal/metrics"
	"cmpcache/internal/profiling"
	"cmpcache/internal/stats"
	"cmpcache/internal/sweep"
	"cmpcache/internal/telemetry"
	"cmpcache/internal/txlat"
)

func main() {
	var (
		workloads    = flag.String("workloads", "all", "comma-separated workloads (tp,cpw2,notesbench,trade2) or all")
		traces       = flag.String("traces", "", "comma-separated captured-trace inputs (sharded trace dirs) swept alongside the workloads; with -traces and no explicit -workloads, only the traces run")
		mechanisms   = flag.String("mechanisms", "all", "comma-separated mechanisms (base,wbht,snarf,combined,reusedist,hybridui), all, or paper (the original four)")
		outstanding  = flag.String("outstanding", "6", "outstanding-miss axis: list and/or ranges, e.g. 1-6 or 1,2,4")
		tableSizes   = flag.String("table-sizes", "", "table-entry axis for the active mechanism, e.g. 512,2048,8192 (empty = paper defaults)")
		knobs        = config.RegisterKnobs(flag.CommandLine)
		refs         = flag.Int("refs", 0, "references per thread (0 = workload default)")
		workers      = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		timeout      = flag.Duration("timeout", 0, "per-job wall-clock timeout (0 = none)")
		jsonOut      = flag.String("json", "", "write full results as JSON to this file (- for stdout)")
		csvOut       = flag.String("csv", "", "write result rows as CSV to this file (- for stdout)")
		metricsOut   = flag.String("metrics-out", "", "write one per-interval metrics series JSON file per job (plus a summary.json roll-up) into this directory")
		metricsIval  = flag.Int64("metrics-interval", 0, "metrics sampling window in cycles (0 = 1M, the paper's retry window)")
		latOut       = flag.String("lat-out", "", "write one stage-attributed latency report JSON file per job into this directory; feed them to cmpreport")
		latTopK      = flag.Int("lat-topk", 0, "slowest-transactions reservoir size for -lat-out (0 = default 16)")
		quiet        = flag.Bool("q", false, "suppress the progress lines on stderr")
		cpuprofile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memprofile   = flag.String("memprofile", "", "write a pprof heap profile (after the sweep) to this file")
		telemetryOut = flag.String("telemetry-out", "", "write the sweep's pool telemetry (Prometheus text exposition) to this file after the sweep (- for stderr)")
	)
	flag.Parse()

	// Validate every output destination before the sweep starts: create
	// missing parent directories and prove the file is creatable now,
	// instead of losing a long sweep to a bad path at export time.
	for _, out := range []struct{ flag, path string }{
		{"json", *jsonOut},
		{"csv", *csvOut},
		{"cpuprofile", *cpuprofile},
		{"memprofile", *memprofile},
		{"telemetry-out", *telemetryOut},
	} {
		if err := ensureWritable(out.path); err != nil {
			fatalf("-%s: %v", out.flag, err)
		}
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatalf("%v", err)
	}

	plan := sweep.Plan{RefsPerThread: *refs}
	for _, tf := range strings.Split(*traces, ",") {
		if tf = strings.TrimSpace(tf); tf != "" {
			plan.TraceFiles = append(plan.TraceFiles, tf)
		}
	}
	// With trace inputs and no explicit -workloads, the grid runs only
	// the traces; "-workloads all" stays available to sweep both.
	if len(plan.TraceFiles) == 0 || config.Explicit(flag.CommandLine, "workloads") {
		if plan.Workloads, err = sweep.ParseWorkloads(*workloads); err != nil {
			fatalf("%v", err)
		}
	}
	if err = plan.Validate(); err != nil {
		fatalf("%v", err)
	}
	if plan.Mechanisms, err = sweep.ParseMechanisms(*mechanisms); err != nil {
		fatalf("%v", err)
	}
	if plan.Outstanding, err = sweep.ParseIntSpec(*outstanding); err != nil {
		fatalf("%v", err)
	}
	if *tableSizes != "" {
		if plan.TableSizes, err = sweep.ParseIntSpec(*tableSizes); err != nil {
			fatalf("%v", err)
		}
	}
	jobs := plan.Jobs()
	for i := range jobs {
		jobs[i].Knobs = knobs.Over(jobs[i].Knobs)
	}
	if len(jobs) == 0 {
		fatalf("empty grid")
	}

	opts := sweep.Options{
		Workers: *workers,
		Timeout: *timeout,
	}
	if *metricsOut != "" {
		opts.MetricsInterval = config.Cycles(*metricsIval)
		if opts.MetricsInterval <= 0 {
			opts.MetricsInterval = metrics.DefaultInterval
		}
		if err := os.MkdirAll(*metricsOut, 0o755); err != nil {
			fatalf("%v", err)
		}
	}
	if *latOut != "" {
		opts.Latency = &txlat.Config{TopK: *latTopK}
		if err := os.MkdirAll(*latOut, 0o755); err != nil {
			fatalf("%v", err)
		}
	}
	var reg *telemetry.Registry
	if *telemetryOut != "" {
		reg = telemetry.New()
		opts.Metrics = sweep.NewPoolMetrics(reg, "cmpsweep")
	}
	if !*quiet {
		opts.Progress = func(p sweep.Progress) {
			status := fmt.Sprintf("%6.1fs", p.Duration.Seconds())
			if p.Cached {
				status = "cached"
			}
			if p.Err != nil {
				status = "FAILED"
			}
			fmt.Fprintf(os.Stderr, "[%3d/%3d eta %4ds] %s  %s\n",
				p.Done, p.Total, int(p.ETA.Seconds()), status, p.Job)
		}
	}
	start := time.Now()
	results := sweep.Run(context.Background(), jobs, opts)

	// Suppress the human-readable table when an export owns stdout, so
	// `-json -` / `-csv -` emit clean machine-readable streams.
	if *jsonOut != "-" && *csvOut != "-" {
		if err := printTable(os.Stdout, results, time.Since(start)); err != nil {
			fatalf("%v", err)
		}
	}
	if *jsonOut != "" {
		if err := writeFile(*jsonOut, results, sweep.WriteJSON); err != nil {
			fatalf("%v", err)
		}
	}
	if *csvOut != "" {
		if err := writeFile(*csvOut, results, sweep.WriteCSV); err != nil {
			fatalf("%v", err)
		}
	}
	if *metricsOut != "" {
		if err := writeSeriesDir(*metricsOut, results); err != nil {
			fatalf("%v", err)
		}
	}
	if *latOut != "" {
		if err := writeLatencyDir(*latOut, results); err != nil {
			fatalf("%v", err)
		}
	}
	if *telemetryOut != "" {
		if err := writeTelemetry(*telemetryOut, reg); err != nil {
			fatalf("-telemetry-out: %v", err)
		}
	}
	if err := stopProfiles(); err != nil {
		fatalf("%v", err)
	}
	for _, r := range results {
		if r.Err != nil {
			os.Exit(1) // partial failure: rows reported above
		}
	}
}

// printTable renders the sweep as a markdown table; when the grid
// includes a baseline run for a variant's input and outstanding limit,
// the variant's row shows its runtime improvement over it. Baselines
// are keyed by the input itself, not its label: two captures sharing a
// base name in different directories share a label.
func printTable(w io.Writer, results []sweep.Result, elapsed time.Duration) error {
	type input struct {
		workload, traceFile string
		outstanding         int
	}
	key := func(j sweep.Job) input { return input{j.Workload, j.TraceFile, j.Outstanding} }
	baselines := make(map[input]uint64)
	for _, r := range results {
		if r.Job.Mechanism == config.Baseline && r.Err == nil {
			baselines[key(r.Job)] = r.Results.Cycles
		}
	}
	t := stats.NewTable(
		fmt.Sprintf("Sweep — %d configurations in %.1fs wall", len(results), elapsed.Seconds()),
		"Workload", "Mechanism", "Out", "Knobs", "Cycles", "vs base", "L2 hit %", "L3 load hit %", "Wall")
	for _, r := range results {
		if r.Err != nil {
			t.AddRowf(r.Job.Input(), r.Job.Mechanism, r.Job.Outstanding,
				r.Job.Knobs.String(), "error: "+r.Err.Error(), "", "", "", "")
			continue
		}
		improvement := ""
		if base, ok := baselines[key(r.Job)]; ok && r.Job.Mechanism != config.Baseline {
			improvement = fmt.Sprintf("%+.2f%%", stats.Improvement(base, r.Results.Cycles))
		}
		wall := fmt.Sprintf("%.2fs", r.Duration.Seconds())
		if r.Cached {
			wall = "cached"
		}
		t.AddRowf(r.Job.Input(), r.Job.Mechanism, r.Job.Outstanding,
			r.Job.Knobs.String(), r.Results.Cycles, improvement,
			fmt.Sprintf("%.2f", 100*r.Results.L2HitRate()),
			fmt.Sprintf("%.2f", 100*r.Results.L3LoadHitRate()), wall)
	}
	_, err := io.WriteString(w, t.Markdown())
	return err
}

// writeSeriesDir writes one <job-slug>.json per successful job, each
// holding the job identity and its interval series, plus a summary.json
// rolling every job's series up into comparable totals/peaks/means.
// Deduplicated jobs map to the same slug and content, so rewrites are
// harmless.
func writeSeriesDir(dir string, results []sweep.Result) error {
	for _, r := range results {
		if r.Err != nil || r.Results == nil || r.Results.Metrics == nil {
			continue
		}
		out, err := json.MarshalIndent(struct {
			Job     sweep.Job       `json:"job"`
			Metrics *metrics.Series `json:"metrics"`
		}{r.Job, r.Results.Metrics}, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, jobSlug(r.Job)+".json")
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			return err
		}
	}
	return writeIndented(filepath.Join(dir, "summary.json"), sweep.Summarize(results))
}

// writeLatencyDir writes one <job-slug>.lat.json per successful job in
// the cmpsim -lat-out format, ready for cmpreport.
func writeLatencyDir(dir string, results []sweep.Result) error {
	for _, r := range results {
		if r.Err != nil || r.Results == nil || r.Results.Latency == nil {
			continue
		}
		run := txlat.RunLatency{
			Workload:    r.Job.Input(),
			Mechanism:   r.Job.Mechanism.String(),
			Outstanding: r.Job.Config().MaxOutstanding,
			Cycles:      r.Results.Cycles,
			Latency:     r.Results.Latency,
		}
		path := filepath.Join(dir, jobSlug(r.Job)+".lat.json")
		if err := writeIndented(path, &run); err != nil {
			return err
		}
	}
	return nil
}

// ensureWritable creates path's missing parent directories and verifies
// the file itself can be created. A probe file that did not exist
// before is removed again so a later failure leaves no empty artifact.
func ensureWritable(path string) error {
	if path == "" || path == "-" {
		return nil
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	f.Close()
	if os.IsNotExist(statErr) {
		os.Remove(path)
	}
	return nil
}

// writeIndented writes v as indented JSON to path.
func writeIndented(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// writeTelemetry renders the sweep's registry as Prometheus text
// exposition ("-" writes to stderr, keeping stdout for the table).
func writeTelemetry(path string, reg *telemetry.Registry) error {
	if path == "-" {
		_, err := reg.WritePrometheus(os.Stderr)
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// jobSlug renders a job as a filesystem-safe file stem.
func jobSlug(j sweep.Job) string {
	s := j.String()
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		case r == '/', r == ' ', r == '=':
			return '_'
		default:
			return '-'
		}
	}, s)
}

func writeFile(path string, results []sweep.Result, write func(io.Writer, []sweep.Result) error) error {
	if path == "-" {
		return write(os.Stdout, results)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, results); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cmpsweep: "+format+"\n", args...)
	os.Exit(1)
}
