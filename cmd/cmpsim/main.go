// Command cmpsim runs one simulation of the CMP cache hierarchy and
// prints a statistics report.
//
// Usage:
//
//	cmpsim -workload trade2 -mechanism wbht -outstanding 6
//	cmpsim -trace capture.cmps -mechanism wbht
//
// The workload is either a built-in synthetic profile (tp, cpw2,
// notesbench, trade2) or a sharded trace directory written by tracegen,
// which replays as a bounded-memory stream.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"cmpcache"
	"cmpcache/internal/config"
	"cmpcache/internal/metrics"
	"cmpcache/internal/profiling"
)

func main() {
	var (
		workloadName = flag.String("workload", "trade2", "built-in workload: tp, cpw2, notesbench, trade2")
		traceFile    = flag.String("trace", "", "sharded trace directory to replay instead of a built-in workload")
		mechanism    = flag.String("mechanism", "base", "write-back policy: base, wbht, snarf, combined, reusedist, hybridui")
		outstanding  = flag.Int("outstanding", 6, "max outstanding misses per thread (1-6 in the paper)")
		refs         = flag.Int("refs", 0, "references per thread for built-in workloads (0 = default)")
		knobs        = config.RegisterKnobs(flag.CommandLine)
		configFile   = flag.String("config", "", "load a JSON configuration (see -dump-config) before applying flags")
		dumpConfig   = flag.Bool("dump-config", false, "print the effective configuration as JSON and exit")
		jsonOut      = flag.Bool("json", false, "print the full result set as JSON instead of the text report")
		metricsOut   = flag.String("metrics-out", "", "write the per-interval metrics series as JSON to this file (- for stdout)")
		metricsIval  = flag.Int64("metrics-interval", 0, "metrics sampling window in cycles (0 = 1M, the paper's retry window)")
		auditRun     = flag.Bool("audit", false, "attach the shadow invariant checker (coherence, dirty-line conservation, resource credits) and fail on violations")
		auditDiff    = flag.Bool("audit-differential", true, "with -audit, also run the reference coherence model and diff end states")
		traceOut     = flag.String("trace-out", "", "write a structured event trace to this file (.jsonl = JSON Lines, otherwise Chrome trace_event viewable in Perfetto)")
		latOut       = flag.String("lat-out", "", "attach the latency collector and write the stage-attributed report as JSON to this file (- for stdout); feed it to cmpreport")
		latTopK      = flag.Int("lat-topk", 0, "slowest-transactions reservoir size for -lat-out (0 = default 16)")
		latInterval  = flag.Int64("lat-interval", 0, "also bin latency quantiles into windows of this many cycles for -lat-out (0 = off)")
		cpuprofile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile   = flag.String("memprofile", "", "write a pprof heap profile (after the run) to this file")
	)
	flag.Parse()

	if *refs < 0 {
		fatalf("-refs = %d, must be >= 0", *refs)
	}
	// Validate every output destination before any simulation work:
	// create missing parent directories and prove the file is creatable
	// now, instead of discovering a bad path after minutes of simulation.
	for _, out := range []struct{ flag, path string }{
		{"metrics-out", *metricsOut},
		{"trace-out", *traceOut},
		{"lat-out", *latOut},
		{"cpuprofile", *cpuprofile},
		{"memprofile", *memprofile},
	} {
		if err := ensureWritable(out.path); err != nil {
			fatalf("-%s: %v", out.flag, err)
		}
	}

	cfg := cmpcache.DefaultConfig()
	if *configFile != "" {
		f, err := os.Open(*configFile)
		if err != nil {
			fatalf("%v", err)
		}
		cfg, err = config.ReadJSON(f)
		f.Close()
		if err != nil {
			fatalf("%v", err)
		}
	}
	// Flags override the config file only when explicitly given.
	if config.Explicit(flag.CommandLine, "mechanism") || *configFile == "" {
		var m config.Mechanism
		if err := m.UnmarshalText([]byte(*mechanism)); err != nil {
			fatalf("%v", err)
		}
		cfg = cfg.WithMechanism(m)
	}
	if config.Explicit(flag.CommandLine, "outstanding") || *configFile == "" {
		cfg.MaxOutstanding = *outstanding
	}
	knobs.Apply(&cfg)
	if *dumpConfig {
		if err := cfg.WriteJSON(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}
	stopProfiles, perr := profiling.Start(*cpuprofile, *memprofile)
	if perr != nil {
		fatalf("%v", perr)
	}

	// The workload is either a sharded trace directory (streamed with
	// bounded memory) or a built-in synthetic profile.
	var (
		src     cmpcache.TraceSource
		sharded *cmpcache.ShardedTrace
		err     error
	)
	if *traceFile != "" {
		sharded, err = cmpcache.OpenTraceDir(*traceFile)
		if err != nil {
			fatalf("%v", err)
		}
		defer sharded.Close()
		src = sharded
	} else {
		tr, gerr := generate(*workloadName, *refs)
		if gerr != nil {
			fatalf("%v", gerr)
		}
		if src, err = cmpcache.NewMemSource(tr); err != nil {
			fatalf("%v", err)
		}
	}

	// Every attachment is observation-only, so all of them compose onto
	// one run.
	var opts cmpcache.RunOptions
	if *auditRun {
		opts.Auditor = cmpcache.NewAuditor(cmpcache.AuditConfig{Differential: *auditDiff})
	}
	var tw *metrics.TraceWriter
	var tf *os.File
	if *metricsOut != "" || *traceOut != "" {
		opts.Probe = cmpcache.NewMetricsProbe(cmpcache.MetricsConfig{
			Interval: config.Cycles(*metricsIval),
		})
		if *traceOut != "" {
			tf, err = os.Create(*traceOut)
			if err != nil {
				fatalf("%v", err)
			}
			tw = metrics.NewTraceWriter(tf, metrics.FormatForPath(*traceOut))
			opts.Probe.SetTrace(tw)
		}
	}
	if *latOut != "" {
		opts.Latency = cmpcache.NewLatencyCollector(cmpcache.LatencyConfig{
			TopK:     *latTopK,
			Interval: config.Cycles(*latInterval),
		})
	}

	res, err := cmpcache.Run(cfg, src, opts)
	if tw != nil {
		if cerr := tw.Close(); cerr != nil {
			fatalf("trace-out: %v", cerr)
		}
		if cerr := tf.Close(); cerr != nil {
			fatalf("trace-out: %v", cerr)
		}
	}
	if err != nil {
		fatalf("%v", err)
	}
	auditFailed := false
	if opts.Auditor != nil {
		fmt.Fprint(os.Stderr, opts.Auditor.Summary())
		auditFailed = !opts.Auditor.Ok()
	}
	if *metricsOut != "" {
		if werr := writeJSON(*metricsOut, res.Metrics); werr != nil {
			fatalf("metrics-out: %v", werr)
		}
	}
	if *latOut != "" {
		run := cmpcache.RunLatencyFile{
			Workload:    src.Name(),
			Mechanism:   cfg.Mechanism.String(),
			Outstanding: cfg.MaxOutstanding,
			Cycles:      res.Cycles,
			Latency:     res.Latency,
		}
		if werr := writeJSON(*latOut, &run); werr != nil {
			fatalf("lat-out: %v", werr)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatalf("%v", err)
		}
	} else {
		fmt.Printf("workload             %s (%d refs, %d threads)\n",
			src.Name(), src.Records(), src.Threads())
		fmt.Print(res.Summary())
	}
	if err := stopProfiles(); err != nil {
		fatalf("%v", err)
	}
	if auditFailed {
		os.Exit(1)
	}
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

// writeJSON writes v as indented JSON to path ("-" for stdout). A file's
// Close error is returned too: a write that hits a full disk may only
// surface there.
func writeJSON(path string, v any) error {
	f := os.Stdout
	if path != "-" {
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	if f != os.Stdout {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func generate(workloadName string, refs int) (*cmpcache.Trace, error) {
	if refs > 0 {
		return cmpcache.GenerateWorkloadSized(workloadName, refs)
	}
	return cmpcache.GenerateWorkload(workloadName)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cmpsim: "+format+"\n", args...)
	os.Exit(1)
}
