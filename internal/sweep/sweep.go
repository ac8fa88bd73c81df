// Package sweep is the parallel sweep orchestrator: it fans independent
// simulation runs out across a bounded pool of goroutines and collects
// their results deterministically.
//
// Every evaluation artifact in the paper (Figures 2-7, Tables 1-5) is a
// sweep over independent configurations — workloads x mechanisms x
// outstanding-miss counts x table sizes. Each run is serial and
// deterministic; this package supplies the concurrency *between* runs:
//
//   - a Job/Result model with a Plan builder that expands grids;
//   - a worker pool with bounded concurrency, per-job panic recovery
//     (a crashing configuration reports an error result instead of
//     killing the sweep), per-job wall-clock timing and an optional
//     per-job timeout;
//   - deterministic output ordering (results are returned in job order
//     regardless of completion order) and within-sweep deduplication,
//     so identical jobs execute once;
//   - JSON/CSV export and a progress callback (done / total / ETA);
//   - profiler labels on every run (ProfileLabels), so a CPU profile of
//     a sweep splits by job.
//
// The orchestrator never reorders or perturbs simulation inputs, so a
// sweep run with 1 worker and with N workers exports byte-identical
// results.
package sweep

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"cmpcache/internal/config"
	"cmpcache/internal/system"
	"cmpcache/internal/telemetry"
	"cmpcache/internal/txlat"
)

// Job identifies one simulation configuration; the experiment harness
// caches its runs by Job itself. Within a sweep, jobs are deduplicated
// by their canonical content hash (Key), so two jobs that materialize
// to the same (config, workload, seed) — even spelled differently, e.g.
// a defaulted knob vs. its explicit paper value — execute once and
// share a result.
type Job struct {
	Workload    string
	Mechanism   config.Mechanism
	Outstanding int // 0 = config default (6)

	// TraceFile, when non-empty, replays a captured trace — a sharded
	// trace directory — instead of synthesizing Workload (which must
	// then be empty). The capture's content identity (trace.Describe),
	// not its path, flows into the job's cache key: two paths holding
	// identical captures share a result, and rewriting a capture in
	// place changes the key.
	TraceFile string

	// Knobs are the policy knobs set on top of the mechanism's defaults
	// (zero = paper default, a negative integer = explicitly zero).
	// Embedded, so JSON, CSV and HTTP bodies spell them as the job's
	// own fields.
	config.Knobs

	// RefsPerThread overrides the workload length (0 = profile default).
	RefsPerThread int
}

// Config materializes the simulated system configuration for the job.
func (j Job) Config() config.Config {
	cfg := config.Default().WithMechanism(j.Mechanism)
	if j.Outstanding > 0 {
		cfg.MaxOutstanding = j.Outstanding
	}
	j.Knobs.Apply(&cfg)
	return cfg
}

// Input names the job's input for tables, exports and reports: the
// synthetic workload's name, or "trace:" and the base name of a replay
// job's capture.
func (j Job) Input() string {
	if j.TraceFile != "" {
		return "trace:" + filepath.Base(j.TraceFile)
	}
	return j.Workload
}

// String renders the job compactly for progress lines and errors,
// omitting fields left at their defaults.
func (j Job) String() string {
	var b strings.Builder
	if j.TraceFile != "" {
		fmt.Fprintf(&b, "trace:%s/%s", j.TraceFile, j.Mechanism)
	} else {
		fmt.Fprintf(&b, "%s/%s", j.Workload, j.Mechanism)
	}
	if j.Outstanding > 0 {
		fmt.Fprintf(&b, " out=%d", j.Outstanding)
	}
	if k := j.Knobs.String(); k != "" {
		b.WriteByte(' ')
		b.WriteString(k)
	}
	return b.String()
}

// Result is the outcome of one job. Exactly one of Results and Err is
// meaningful. Duration and Cached describe this sweep's execution and
// are excluded from JSON/CSV export so exports are reproducible across
// worker counts.
type Result struct {
	Job     Job
	Results *system.Results
	Err     error

	// Duration is the wall-clock time of the simulation run (zero for
	// jobs satisfied by an identical job's result).
	Duration time.Duration
	// Cached reports that this job was deduplicated against an
	// identical job earlier in the sweep.
	Cached bool
}

// Progress reports sweep advancement; the pool invokes the callback
// once per finished job, serialized (never concurrently).
type Progress struct {
	Done     int // jobs finished so far, including this one
	Total    int
	Job      Job
	Err      error
	Cached   bool
	Duration time.Duration // this job's wall clock (zero when Cached)
	Elapsed  time.Duration // since the sweep started
	ETA      time.Duration // naive remaining-time estimate
}

// RunFunc executes one job. Implementations must be safe for
// concurrent use; the default is (*Simulator).Run.
type RunFunc func(context.Context, Job) (*system.Results, error)

// Options controls pool execution.
type Options struct {
	// Workers bounds concurrency; <= 0 means GOMAXPROCS.
	Workers int
	// Timeout, when positive, cancels each job that runs longer. The
	// timed-out job reports context.DeadlineExceeded; the sweep
	// continues. The default Simulator polls the context between
	// events, so a timed-out run stops (and its goroutine exits)
	// within milliseconds; a custom Run that ignores its context is
	// abandoned on its goroutine instead.
	Timeout time.Duration
	// Progress, when non-nil, receives one serialized event per
	// finished job.
	Progress func(Progress)
	// Run overrides the job executor (tests, fault injection). Nil
	// uses a fresh Simulator shared by the sweep.
	Run RunFunc
	// MetricsInterval, when positive and Run is nil, attaches a metrics
	// probe with that sampling window to every simulation; each job's
	// Results.Metrics then carries its interval series. Probes are
	// per-run state, so series are identical at any worker count.
	MetricsInterval config.Cycles
	// Latency, when non-nil and Run is nil, attaches a per-transaction
	// latency collector configured by it to every simulation; each
	// job's Results.Latency then carries the stage-attributed report.
	Latency *txlat.Config

	// Metrics, when non-nil, receives pool occupancy and per-job timing
	// (worker busy gauge, queue-wait and wall-time histograms, run/dedup
	// counters). Every instrument inside is nil-safe, so a partially
	// filled PoolMetrics records only what it carries; nil is the
	// zero-cost detached default.
	Metrics *PoolMetrics
}

// PoolMetrics instruments a sweep pool. Build one with NewPoolMetrics
// to register everything on a telemetry registry, or fill individual
// fields by hand (instruments are nil-safe).
type PoolMetrics struct {
	// Busy tracks workers currently executing a simulation (dedup
	// waiters don't count — they are blocked, not working).
	Busy *telemetry.Gauge
	// JobsRun counts primary executions; JobsDeduped counts jobs served
	// by attaching to an identical in-flight or finished entry.
	JobsRun     *telemetry.Counter
	JobsDeduped *telemetry.Counter
	// QueueSeconds observes, per primary execution, the wait between
	// pool start and the job beginning to run — the dispatch delay the
	// bounded pool imposed. JobSeconds observes each primary's
	// simulation wall time.
	QueueSeconds *telemetry.Histogram
	JobSeconds   *telemetry.Histogram
	// SourceOpens / SourceHits count capture decodes and per-run opens
	// vs source-cache hits when the pool builds its own Simulator.
	SourceOpens *telemetry.Counter
	SourceHits  *telemetry.Counter
}

// NewPoolMetrics registers the full pool instrument set on reg under
// the given metric-name prefix (e.g. "cmpsweep"). A nil registry yields
// detached but functional instruments.
func NewPoolMetrics(reg *telemetry.Registry, prefix string) *PoolMetrics {
	if reg == nil {
		return &PoolMetrics{
			Busy:    &telemetry.Gauge{},
			JobsRun: &telemetry.Counter{}, JobsDeduped: &telemetry.Counter{},
			QueueSeconds: telemetry.NewHistogram(telemetry.SecondsBuckets),
			JobSeconds:   telemetry.NewHistogram(telemetry.SecondsBuckets),
			SourceOpens:  &telemetry.Counter{}, SourceHits: &telemetry.Counter{},
		}
	}
	return &PoolMetrics{
		Busy: reg.Gauge(prefix+"_pool_busy_workers",
			"Pool workers currently executing a simulation."),
		JobsRun: reg.Counter(prefix+"_pool_jobs_run_total",
			"Distinct simulations executed by the pool."),
		JobsDeduped: reg.Counter(prefix+"_pool_jobs_deduped_total",
			"Jobs served by attaching to an identical entry instead of executing."),
		QueueSeconds: reg.Histogram(prefix+"_pool_job_queue_seconds",
			"Wait between pool start and a primary beginning to run.",
			telemetry.SecondsBuckets),
		JobSeconds: reg.Histogram(prefix+"_pool_job_seconds",
			"Per-primary simulation wall time.",
			telemetry.SecondsBuckets),
		SourceOpens: reg.Counter(prefix+"_trace_source_opens_total",
			"Trace captures decoded, plus per-run opens of captures too large to decode."),
		SourceHits: reg.Counter(prefix+"_trace_source_cache_hits_total",
			"Trace-source lookups served from the simulator's source cache."),
	}
}

// Run executes jobs on a bounded worker pool and returns one Result per
// job, in job order. Identical jobs execute once and share a result.
// Run never fails as a whole: per-job errors (including recovered
// panics and timeouts) are reported on the individual Result. A
// cancelled ctx marks not-yet-started jobs with ctx.Err().
func Run(ctx context.Context, jobs []Job, opts Options) []Result {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	runFn := opts.Run
	if runFn == nil {
		sim := NewSimulator()
		sim.MetricsInterval = opts.MetricsInterval
		sim.Latency = opts.Latency
		if opts.Metrics != nil {
			sim.SourceOpens = opts.Metrics.SourceOpens
			sim.SourceHits = opts.Metrics.SourceHits
		}
		runFn = sim.Run
	}

	met := opts.Metrics
	if met == nil {
		met = &PoolMetrics{} // all-nil instruments: nil-safe, zero-cost
	}
	results := make([]Result, len(jobs))
	pool := &pool{
		entries: make(map[string]*entry, len(jobs)),
		total:   len(jobs),
		start:   time.Now(),
		report:  opts.Progress,
		met:     met,
	}

	idxCh := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for idx := range idxCh {
				results[idx] = pool.execute(ctx, jobs[idx], runFn, opts.Timeout)
			}
		}()
	}
	for idx := range jobs {
		idxCh <- idx
	}
	close(idxCh)
	wg.Wait()
	return results
}

// entry is the shared execution record for one distinct Job.
type entry struct {
	ready chan struct{} // closed once res/err/dur are final
	res   *system.Results
	err   error
	dur   time.Duration
}

type pool struct {
	mu      sync.Mutex
	entries map[string]*entry

	progressMu sync.Mutex
	done       int
	total      int
	start      time.Time
	report     func(Progress)

	met *PoolMetrics // never nil; individual instruments may be
}

// execute runs (or awaits) the entry for job and returns its Result.
// Entries are keyed by the canonical content hash (Key), not the Job
// struct, so jobs that spell the same simulation differently — a
// defaulted field vs. its explicit paper value — still collapse to one
// execution.
func (p *pool) execute(ctx context.Context, job Job, runFn RunFunc, timeout time.Duration) Result {
	key := dedupKey(job)
	p.mu.Lock()
	e, dup := p.entries[key]
	if !dup {
		e = &entry{ready: make(chan struct{})}
		p.entries[key] = e
	}
	p.mu.Unlock()

	r := Result{Job: job, Cached: dup}
	if !dup {
		start := time.Now()
		p.met.QueueSeconds.Observe(start.Sub(p.start).Seconds())
		p.met.Busy.Inc()
		e.res, e.err = runJob(ctx, runFn, job, timeout)
		e.dur = time.Since(start)
		p.met.Busy.Dec()
		p.met.JobsRun.Inc()
		p.met.JobSeconds.Observe(e.dur.Seconds())
		close(e.ready)
		r.Results, r.Err, r.Duration = e.res, e.err, e.dur
	} else {
		p.met.JobsDeduped.Inc()
		select {
		case <-e.ready:
			r.Results, r.Err = e.res, e.err
		case <-ctx.Done():
			r.Err = ctx.Err()
		}
	}
	p.progress(r)
	return r
}

func (p *pool) progress(r Result) {
	if p.report == nil {
		p.progressMu.Lock()
		p.done++
		p.progressMu.Unlock()
		return
	}
	p.progressMu.Lock()
	defer p.progressMu.Unlock()
	p.done++
	elapsed := time.Since(p.start)
	var eta time.Duration
	if p.done > 0 && p.done < p.total {
		eta = elapsed / time.Duration(p.done) * time.Duration(p.total-p.done)
	}
	p.report(Progress{
		Done:     p.done,
		Total:    p.total,
		Job:      r.Job,
		Err:      r.Err,
		Cached:   r.Cached,
		Duration: r.Duration,
		Elapsed:  elapsed,
		ETA:      eta,
	})
}

// runJob wraps one execution with timeout plumbing and panic recovery.
func runJob(ctx context.Context, fn RunFunc, job Job, timeout time.Duration) (*system.Results, error) {
	if timeout <= 0 {
		return safeRun(ctx, fn, job)
	}
	tctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	type outcome struct {
		res *system.Results
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := safeRun(tctx, fn, job)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-tctx.Done():
		return nil, fmt.Errorf("sweep: job %s: %w", job, tctx.Err())
	}
}

// safeRun converts a panicking job into an error result so one broken
// configuration cannot take down the sweep.
func safeRun(ctx context.Context, fn RunFunc, job Job) (res *system.Results, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("sweep: job %s panicked: %v", job, p)
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ProfileLabels(ctx, job, func(ctx context.Context) { res, err = fn(ctx, job) })
	return res, err
}

// ProfileLabels runs fn under job's profiler labels: input (Job.Input),
// mechanism and outstanding (the effective limit). CPU samples taken
// while fn runs carry them, and so does the context fn receives, so a
// CPU profile of a sweep or of the daemon splits by job.
func ProfileLabels(ctx context.Context, job Job, fn func(context.Context)) {
	pprof.Do(ctx, pprof.Labels(
		"input", job.Input(),
		"mechanism", job.Mechanism.String(),
		"outstanding", strconv.Itoa(job.Config().MaxOutstanding),
	), fn)
}
