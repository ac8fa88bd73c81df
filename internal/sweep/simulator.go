package sweep

import (
	"context"
	"slices"
	"sync"

	"cmpcache/internal/config"
	"cmpcache/internal/metrics"
	"cmpcache/internal/system"
	"cmpcache/internal/telemetry"
	"cmpcache/internal/trace"
	"cmpcache/internal/txlat"
	"cmpcache/internal/workload"
)

// Simulator is the default job executor: it builds (and caches) each
// job's trace source and runs the job's configuration over it. It is
// safe for concurrent use. A synthetic workload is generated and split
// per thread once per (workload, length), and at most
// maxSyntheticSources of them stay cached; a capture is opened once
// per content version. Sources are shared across concurrent runs: the
// simulator only reads them, each run takes its own per-thread streams,
// and the sharded reader serves them with positioned reads.
type Simulator struct {
	// MetricsInterval, when positive, attaches a metrics probe sampling
	// at that window to every run; each Result's Results.Metrics then
	// carries the per-interval series. Zero leaves runs unprobed (the
	// zero-overhead default). Set before the sweep starts.
	MetricsInterval config.Cycles

	// Latency, when non-nil, attaches a per-transaction latency
	// collector configured by it to every run; each Result's
	// Results.Latency then carries the stage-attributed report.
	// Collectors are per-run state, so reports are identical at any
	// worker count. Set before the sweep starts.
	Latency *txlat.Config

	// SourceOpens / SourceHits count capture opens and source-cache
	// hits for captures (synthetic workloads are not counted).
	// Nil-safe telemetry instruments: leave nil for zero-cost
	// detachment. Set before the sweep starts.
	SourceOpens *telemetry.Counter
	SourceHits  *telemetry.Counter

	mu      sync.Mutex
	sources map[sourceKey]*sourceEntry
	// synthetic lists the cached synthetic keys, least recently used
	// first.
	synthetic []sourceKey
}

// maxSyntheticSources bounds the cached synthetic sources: one per
// built-in workload, so a grid over every workload at one length (the
// experiment harness's) generates each trace once, while a long-lived
// daemon asked for many lengths keeps only the latest few resident.
const maxSyntheticSources = 4

// sourceKey identifies a cached source: a capture by path AND content
// hash (a capture rewritten in place between jobs is reopened, never
// served stale from the cache), a synthetic workload by name and
// per-thread length.
type sourceKey struct {
	path, sha string
	workload  string
	refs      int
}

type sourceEntry struct {
	ready chan struct{}
	src   trace.Source
	err   error
}

// NewSimulator returns a Simulator with an empty source cache.
func NewSimulator() *Simulator {
	return &Simulator{sources: make(map[sourceKey]*sourceEntry)}
}

// source returns j's trace source, building it at most once per key
// even under concurrent callers. A capture streams from disk; a
// synthetic workload is held in memory, split per thread.
func (s *Simulator) source(ctx context.Context, j Job) (trace.Source, error) {
	key := sourceKey{workload: j.Workload, refs: j.RefsPerThread}
	var opens, hits *telemetry.Counter
	if j.TraceFile != "" {
		ref, err := trace.Describe(j.TraceFile)
		if err != nil {
			return nil, err
		}
		key = sourceKey{path: j.TraceFile, sha: ref.SHA256}
		opens, hits = s.SourceOpens, s.SourceHits
	}
	s.mu.Lock()
	e, ok := s.sources[key]
	if !ok {
		e = &sourceEntry{ready: make(chan struct{})}
		s.sources[key] = e
	}
	if key.path == "" {
		s.touchSynthetic(key)
	}
	s.mu.Unlock()
	if !ok {
		opens.Inc()
		e.src, e.err = openSource(key)
		close(e.ready)
		return e.src, e.err
	}
	hits.Inc()
	select {
	case <-e.ready:
		return e.src, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// touchSynthetic marks a synthetic key most recently used and drops the
// least recently used synthetic source past the bound. A run still
// replaying a dropped source keeps it alive through its own reference.
// The caller holds s.mu.
func (s *Simulator) touchSynthetic(key sourceKey) {
	if i := slices.Index(s.synthetic, key); i >= 0 {
		s.synthetic = slices.Delete(s.synthetic, i, i+1)
	}
	s.synthetic = append(s.synthetic, key)
	if len(s.synthetic) > maxSyntheticSources {
		delete(s.sources, s.synthetic[0])
		s.synthetic = slices.Delete(s.synthetic, 0, 1)
	}
}

// openSource builds the source key names.
func openSource(key sourceKey) (trace.Source, error) {
	if key.path != "" {
		return trace.OpenSharded(key.path)
	}
	t, err := generate(key.workload, key.refs)
	if err != nil {
		return nil, err
	}
	return trace.NewMemSource(t)
}

func generate(name string, refs int) (*trace.Trace, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	if refs > 0 {
		p.RefsPerThread = refs
	}
	return p.Generate()
}

// Run executes one job to completion, or until ctx is cancelled: the
// simulation polls ctx between events (system.RunContext), so a
// cancelled or timed-out job stops within milliseconds and its
// goroutine exits — nothing keeps running in the background. A
// completed run is bit-identical regardless of the ctx used.
func (s *Simulator) Run(ctx context.Context, j Job) (*system.Results, error) {
	cfg := j.Config()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src, err := s.source(ctx, j)
	if err != nil {
		return nil, err
	}
	sys, err := system.NewStream(cfg, src)
	if err != nil {
		return nil, err
	}
	var a system.Attachments
	if s.MetricsInterval > 0 {
		a.Probe = metrics.NewProbe(metrics.Config{Interval: s.MetricsInterval})
	}
	if s.Latency != nil {
		a.Latency = txlat.New(*s.Latency)
	}
	sys.Attach(a)
	return sys.RunContext(ctx)
}
