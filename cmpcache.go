// Package cmpcache is a trace-driven simulator of the chip
// multiprocessor cache hierarchy from Speight, Shafi, Zhang and
// Rajamony, "Adaptive Mechanisms and Policies for Managing Cache
// Hierarchies in Chip Multiprocessors" (ISCA 2005), together with the
// paper's two adaptive write-back management mechanisms:
//
//   - the Write Back History Table (WBHT), which suppresses clean L2
//     write backs whose lines are predicted to already reside in the L3
//     victim cache, gated by a bus-retry-rate switch; and
//   - L2-to-L2 write-back snarfing, which lets peer L2 caches absorb
//     evicted lines with demonstrated reuse, converting future L3 and
//     memory accesses into fast on-chip cache-to-cache transfers.
//
// The simulated machine matches the paper's Table 3: eight 2-way SMT
// cores, four shared sliced L2 caches behind core interface units, a
// bi-directional intrachip ring with a central snoop collector, an
// off-chip 16 MB L3 victim cache for both clean and dirty lines, and a
// memory controller (contention-free latencies 20/77/167/431 cycles).
//
// # Quick start
//
//	cfg := cmpcache.DefaultConfig()               // Table 3 baseline
//	cfg.Mechanism = cmpcache.WBHT                 // enable the history table
//	tr, _ := cmpcache.GenerateWorkload("trade2")  // synthetic commercial trace
//	src, err := cmpcache.NewMemSource(tr)         // validate and split per thread
//	if err != nil { ... }
//	res, err := cmpcache.Run(cfg, src, cmpcache.RunOptions{})
//	if err != nil { ... }
//	fmt.Println(res.Summary())
//
// Every run replays a TraceSource: NewMemSource for an in-memory trace,
// OpenTraceDir for a sharded capture on disk. A source may be replayed
// by any number of runs, so build it once and share it across the
// configurations it is compared under.
//
// The experiment harness that regenerates every table and figure of the
// paper's evaluation lives in cmd/cmpbench; see EXPERIMENTS.md for the
// paper-versus-measured record.
package cmpcache

import (
	"context"

	"cmpcache/internal/audit"
	"cmpcache/internal/config"
	"cmpcache/internal/metrics"
	"cmpcache/internal/system"
	"cmpcache/internal/trace"
	"cmpcache/internal/txlat"
	"cmpcache/internal/workload"
)

// Config parameterizes the simulated system; see the fields of
// internal/config.Config (re-exported here as a type alias so the full
// parameter surface is available without a second import path).
type Config = config.Config

// Mechanism selects the write-back management policy under test.
type Mechanism = config.Mechanism

// The four policies evaluated in the paper.
const (
	// Baseline writes every victim back toward the L3 (which squashes
	// clean write backs it already holds).
	Baseline = config.Baseline
	// WBHT adds the Write Back History Table of Section 2.
	WBHT = config.WBHT
	// Snarf adds the L2-to-L2 write-back absorption of Section 3.
	Snarf = config.Snarf
	// Combined runs both with half-sized tables (Section 5.3).
	Combined = config.Combined
)

// Trace is a replayable memory-reference workload.
type Trace = trace.Trace

// Record is a single memory reference within a Trace.
type Record = trace.Record

// TraceSource is a run's trace input: per-thread chunked iterators.
// The sharded on-disk store (OpenTraceDir) streams a capture with
// bounded memory; NewMemSource adapts an in-memory Trace.
type TraceSource = trace.Source

// NewMemSource validates tr and splits its records per thread once,
// returning a source any number of runs may replay.
func NewMemSource(tr *Trace) (TraceSource, error) {
	src, err := trace.NewMemSource(tr)
	if err != nil {
		return nil, err
	}
	return src, nil
}

// ShardedTrace is the streaming reader over a sharded trace directory
// written by tracegen (or trace.WriteSharded), the one on-disk trace
// format; see DESIGN.md §17.
type ShardedTrace = trace.Sharded

// OpenTraceDir opens a sharded trace directory for streaming replay.
// Close it when done.
func OpenTraceDir(path string) (*ShardedTrace, error) { return trace.OpenSharded(path) }

// Results carries every statistic a run produces, including the derived
// metrics behind each of the paper's tables.
type Results = system.Results

// WorkloadProfile describes a synthetic workload; see
// internal/workload.Profile for the region mixture model.
type WorkloadProfile = workload.Profile

// DefaultConfig returns the paper's Table 3 system with the baseline
// write-back policy and six outstanding misses per thread.
func DefaultConfig() Config { return config.Default() }

// MetricsProbe collects a per-interval time series (and optionally a
// per-transaction event trace) from one run; see internal/metrics.
type MetricsProbe = metrics.Probe

// MetricsConfig parameterizes a MetricsProbe.
type MetricsConfig = metrics.Config

// MetricsSeries is the interval series a probe produces; Results.Metrics
// carries it after a run with a probe attached.
type MetricsSeries = metrics.Series

// NewMetricsProbe returns a probe sampling at cfg.Interval cycles
// (<= 0 selects the paper's 1M-cycle retry window).
func NewMetricsProbe(cfg MetricsConfig) *MetricsProbe { return metrics.NewProbe(cfg) }

// Auditor is the shadow invariant checker of internal/audit: attached
// to a run, it verifies single-writer coherence, dirty-line
// conservation, squash soundness and resource-credit conservation on
// every sweep and at end-of-run drain, without perturbing the
// simulation.
type Auditor = audit.Auditor

// AuditConfig parameterizes an Auditor.
type AuditConfig = audit.Config

// AuditViolation is one invariant failure an Auditor recorded.
type AuditViolation = audit.Violation

// NewAuditor returns an unattached invariant checker.
func NewAuditor(cfg AuditConfig) *Auditor { return audit.New(cfg) }

// LatencyCollector is the per-transaction latency attribution layer of
// internal/txlat: attached to a run, it stamps every demand miss and
// write back at its lifecycle stages and accumulates per-stage cycles
// into quantile histograms keyed by (transaction kind × outcome ×
// mechanism state), plus a top-K slowest-transactions reservoir.
type LatencyCollector = txlat.Collector

// LatencyConfig parameterizes a LatencyCollector.
type LatencyConfig = txlat.Config

// LatencyReport is the collector's frozen output; Results.Latency
// carries it after a run with a collector attached.
type LatencyReport = txlat.Report

// RunLatencyFile is the JSON file format written by `cmpsim -lat-out`
// and consumed by cmpreport.
type RunLatencyFile = txlat.RunLatency

// NewLatencyCollector returns an unattached latency collector.
func NewLatencyCollector(cfg LatencyConfig) *LatencyCollector { return txlat.New(cfg) }

// RunOptions bundles the observation-only attachments a run can carry:
// a metrics probe, an auditor and a latency collector. Any subset
// (including none) may be set, and all compose.
type RunOptions = system.Attachments

// Run simulates src on a system configured by cfg with every attachment
// in opts installed, and returns the complete statistics. It is
// deterministic: identical inputs yield identical results, and the
// attachments are observation-only, so they never change them.
// Results.Metrics and Results.Latency carry the probe series and the
// latency report; inspect the auditor afterward through its own
// methods. A trace stream that fails mid-run returns an error naming
// its thread.
func Run(cfg Config, src TraceSource, opts RunOptions) (*Results, error) {
	s, err := system.NewStream(cfg, src)
	if err != nil {
		return nil, err
	}
	s.Attach(opts)
	return s.RunContext(context.Background())
}

// Workloads lists the built-in synthetic commercial workloads:
// "tp", "cpw2", "notesbench" and "trade2".
func Workloads() []string { return workload.Names() }

// WorkloadByName returns the named built-in workload profile
// (case-insensitive), which the caller may adjust before generating.
func WorkloadByName(name string) (WorkloadProfile, error) {
	return workload.ByName(name)
}

// GenerateWorkload synthesizes the named built-in workload trace at its
// default length.
func GenerateWorkload(name string) (*Trace, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return p.Generate()
}

// GenerateWorkloadSized synthesizes the named workload with a specific
// per-thread reference count (larger traces reduce warm-up effects at
// the cost of simulation time).
func GenerateWorkloadSized(name string, refsPerThread int) (*Trace, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	p.RefsPerThread = refsPerThread
	return p.Generate()
}
