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
// safe for concurrent use.
//
// A synthetic workload is generated and split per thread once per
// (workload, length), and at most maxSyntheticSources of them stay
// cached. A capture of at most trace.MaxLoadRecords records is decoded
// whole once per content version and its shard files are closed at
// once; only the most recently decoded capture stays cached. Plan.Jobs
// lists a grid input by input, so that one capture serves every later
// job of its input at any worker count, while keeping more would add
// each one's decoded records (2 MB per 128K records) to the live heap
// for no further hit. A larger capture streams with bounded memory from a
// store each run opens for itself and closes when it returns. Nothing
// cached is open, so no shard file outlives its run. Cached sources are
// shared across concurrent runs, which only read them; a run still
// replaying an evicted source keeps it alive through its own reference.
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

	// SourceOpens counts capture decodes and per-run opens of captures
	// too large to decode; SourceHits counts capture requests served
	// from the source cache (synthetic workloads are not counted).
	// Nil-safe telemetry instruments: leave nil for zero-cost
	// detachment. Set before the sweep starts.
	SourceOpens *telemetry.Counter
	SourceHits  *telemetry.Counter

	// decodeLimit is the largest capture, in records, decoded whole:
	// trace.MaxLoadRecords, lowered by tests.
	decodeLimit int64

	mu      sync.Mutex
	sources map[sourceKey]*sourceEntry
	// synthetic lists the cached synthetic keys, least recently used
	// first.
	synthetic []sourceKey
	// capture is the key of the one decoded capture kept cached; its
	// path is empty while none is.
	capture sourceKey
}

// maxSyntheticSources bounds the cached synthetic sources: one per
// built-in workload, so a grid over every workload at one length (the
// experiment harness's) generates each trace once, while a long-lived
// daemon asked for many lengths keeps only the latest few resident.
const maxSyntheticSources = 4

// sourceKey identifies a cached source: a capture by path AND content
// hash (a capture rewritten in place between jobs is decoded again,
// never served stale from the cache), a synthetic workload by name and
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
	return &Simulator{
		decodeLimit: trace.MaxLoadRecords,
		sources:     make(map[sourceKey]*sourceEntry),
	}
}

// source returns j's trace source: a synthetic workload or a decoded
// capture from the cache, or a store opened for this run alone, which
// the caller closes.
func (s *Simulator) source(ctx context.Context, j Job) (trace.Source, error) {
	if j.TraceFile == "" {
		return s.cached(ctx, sourceKey{workload: j.Workload, refs: j.RefsPerThread}, nil, nil)
	}
	ref, err := trace.Describe(j.TraceFile)
	if err != nil {
		return nil, err
	}
	if ref.Records > s.decodeLimit {
		s.SourceOpens.Inc()
		sh, err := trace.OpenSharded(j.TraceFile)
		if err != nil {
			return nil, err
		}
		return sh, nil
	}
	return s.cached(ctx, sourceKey{path: j.TraceFile, sha: ref.SHA256}, s.SourceOpens, s.SourceHits)
}

// cached returns key's source, building it at most once per key even
// under concurrent callers, and counts the build or the hit.
func (s *Simulator) cached(ctx context.Context, key sourceKey, opens, hits *telemetry.Counter) (trace.Source, error) {
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
	if ok {
		hits.Inc()
		select {
		case <-e.ready:
			return e.src, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	opens.Inc()
	e.src, e.err = build(key)
	if key.path != "" {
		s.keepCapture(key, e)
	}
	close(e.ready)
	return e.src, e.err
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

// keepCapture makes a decoded capture the one cached, dropping the one
// decoded before it, or drops a failed decode so that the next job on
// that capture decodes it again.
func (s *Simulator) keepCapture(key sourceKey, e *sourceEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.err != nil {
		delete(s.sources, key)
		return
	}
	if s.capture.path != "" {
		delete(s.sources, s.capture)
	}
	s.capture = key
}

// build makes the source key names: a capture decoded whole, its shard
// files closed before it returns, or a synthetic workload split per
// thread.
func build(key sourceKey) (trace.Source, error) {
	if key.path != "" {
		sh, err := trace.OpenSharded(key.path)
		if err != nil {
			return nil, err
		}
		defer sh.Close()
		m, err := sh.Load()
		if err != nil {
			return nil, err
		}
		return m, nil
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
	if sh, ok := src.(*trace.Sharded); ok {
		defer sh.Close() // opened for this run alone
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
