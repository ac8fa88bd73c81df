package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cmpcache/internal/config"
	"cmpcache/internal/sweep"
	"cmpcache/internal/system"
	"cmpcache/internal/telemetry"
	"cmpcache/internal/txlat"
)

// Options configures a Daemon.
type Options struct {
	// CacheDir is the on-disk L2 root; empty disables the disk level
	// (the L1 still memoizes within the process lifetime).
	CacheDir string
	// L1Entries / L1Bytes bound the in-memory L1 (defaults in cache.go).
	L1Entries int
	L1Bytes   int64

	// Workers bounds concurrent simulations; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds jobs accepted but not yet running; <= 0 means
	// DefaultQueueDepth. A submission that would overflow the queue is
	// rejected whole with 429 and no side effects.
	QueueDepth int
	// JobTimeout, when positive, cancels any single simulation running
	// longer (the job reports failed/deadline-exceeded).
	JobTimeout time.Duration

	// MetricsInterval, when positive, attaches an interval-metrics
	// probe to every run; the samples ride in the result JSON and
	// stream on /v1/jobs/{id}/events. Part of the cache key: results
	// collected under different observability settings have different
	// bytes, so they must not alias.
	MetricsInterval config.Cycles
	// Latency attaches the per-transaction latency collector to every
	// run, enabling /v1/jobs/{id}/latency. Also part of the cache key.
	Latency bool
	// LatencyTopK sizes the slowest-transaction reservoir (0 = txlat
	// default).
	LatencyTopK int

	// Run overrides the job executor (tests, fault injection). Nil
	// uses a shared sweep.Simulator configured from the fields above.
	Run sweep.RunFunc

	// Registry receives every daemon metric and backs GET /metrics.
	// Nil means the daemon creates a private registry (still scrapeable
	// via its own endpoint — there is no detached mode for the daemon,
	// only for the instruments' nil-safe use elsewhere). A Registry must
	// be exclusive to one Daemon: metric names carry no per-daemon
	// label, so sharing one would alias counters across daemons. New
	// fails fast (panics on the duplicate gauge-func registration) if a
	// Registry is reused for a second Daemon.
	Registry *telemetry.Registry
	// Logger receives the structured request/job log (one line per HTTP
	// request and per job lifecycle step, each carrying the request ID).
	// Nil discards.
	Logger *slog.Logger
}

// DefaultQueueDepth bounds the accepted-but-not-running backlog.
const DefaultQueueDepth = 256

// ErrShuttingDown rejects submissions arriving after Shutdown began.
var ErrShuttingDown = errors.New("serve: daemon is shutting down")

// RejectError is a submission rejection with an HTTP status attached.
type RejectError struct {
	Status int
	Msg    string
}

func (e *RejectError) Error() string { return e.Msg }

// Daemon executes simulation jobs behind the two-level result cache.
// Create with New, serve its Handler, stop with Shutdown.
type Daemon struct {
	opts  Options
	cache *Cache
	run   sweep.RunFunc
	// observeSalt folds the observability configuration into every job
	// key: a result collected with metrics or latency attached has
	// different bytes than a bare one, so the two must never alias in
	// the cache (e.g. across daemon restarts with different flags).
	observeSalt []byte

	baseCtx   context.Context
	cancelAll context.CancelFunc

	mu      sync.Mutex
	jobs    map[string]*jobState
	order   []string             // job IDs in submission order
	primary map[string]*jobState // key -> in-flight primary
	queue   chan *jobState
	closed  bool
	seq     int

	wg    sync.WaitGroup
	start time.Time

	// Telemetry (DESIGN.md §18): every daemon counter lives in reg via
	// met; /debug/stats and /metrics render the same instruments.
	reg    *telemetry.Registry
	met    *daemonMetrics
	log    *slog.Logger
	idBase string        // request-ID prefix, unique per daemon start
	reqSeq atomic.Uint64 // request-ID sequence

	// ready flips on once the pool is up; draining flips on when
	// shutdown begins. GET /readyz is their conjunction.
	ready    atomic.Bool
	draining atomic.Bool
}

// New builds the daemon and starts its worker pool.
func New(opts Options) (*Daemon, error) {
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.New()
	}
	met := newDaemonMetrics(reg)
	cache, err := NewCache(CacheOptions{
		Dir: opts.CacheDir, L1Entries: opts.L1Entries, L1Bytes: opts.L1Bytes,
		Metrics: NewCacheMetrics(reg),
	})
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	run := opts.Run
	if run == nil {
		sim := sweep.NewSimulator()
		sim.MetricsInterval = opts.MetricsInterval
		if opts.Latency {
			sim.Latency = &txlat.Config{TopK: opts.LatencyTopK}
		}
		sim.SourceOpens = met.traceOpens
		sim.SourceHits = met.traceHits
		run = sim.Run
	}
	salt, err := sweep.Canonical(struct {
		MetricsInterval config.Cycles
		Latency         bool
		LatencyTopK     int
	}{opts.MetricsInterval, opts.Latency, opts.LatencyTopK})
	if err != nil {
		return nil, err
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &Daemon{
		opts:        opts,
		cache:       cache,
		run:         run,
		observeSalt: salt,
		baseCtx:     ctx,
		cancelAll:   cancel,
		jobs:        make(map[string]*jobState),
		primary:     make(map[string]*jobState),
		queue:       make(chan *jobState, depth),
		start:       time.Now(),
		reg:         reg,
		met:         met,
		log:         logger,
		idBase:      strconv.FormatInt(time.Now().UnixMilli(), 36),
	}
	d.registerGaugeFuncs(reg)
	d.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go d.worker()
	}
	d.ready.Store(true)
	return d, nil
}

// Ready reports whether the daemon is accepting work: the pool is up
// and drain has not begun. GET /readyz maps this to 200/503 so load
// balancers stop routing during the shutdown drain window.
func (d *Daemon) Ready() bool { return d.ready.Load() && !d.draining.Load() }

// BeginDrain marks the daemon not-ready ahead of Shutdown. cmpserved
// calls it the moment SIGTERM arrives — before closing the listener —
// so /readyz flips to 503 while in-flight requests still complete.
func (d *Daemon) BeginDrain() { d.draining.Store(true) }

// jobKey is the canonical content hash of the simulation plus the
// daemon's observability settings — see observeSalt.
func (d *Daemon) jobKey(j sweep.Job) (string, error) {
	m, err := sweep.KeyMaterial(j)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(m)
	h.Write(d.observeSalt)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Submit registers jobs and returns their states in order. Each job is
// answered one of three ways, decided atomically under the daemon lock:
//
//   - cache hit (L1 or L2): completed immediately, zero work queued;
//   - identical to an in-flight primary: collapsed onto it
//     (singleflight — one simulation will serve all waiters);
//   - otherwise: enqueued as a new primary, unless the queue cannot
//     hold every new primary in the submission, in which case the whole
//     submission is rejected with 429 and no side effects.
func (d *Daemon) Submit(jobs []sweep.Job) ([]*jobState, error) {
	return d.SubmitOrigin(jobs, "")
}

// SubmitOrigin is Submit with the originating request ID attached to
// every job, so the job log lines produced later (run, cache store)
// trace back to the submission.
func (d *Daemon) SubmitOrigin(jobs []sweep.Job, origin string) ([]*jobState, error) {
	if len(jobs) == 0 {
		return nil, &RejectError{Status: 400, Msg: "empty job list"}
	}
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		k, err := d.jobKey(j)
		if err != nil {
			return nil, &RejectError{Status: 400, Msg: err.Error()}
		}
		keys[i] = k
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, &RejectError{Status: 503, Msg: ErrShuttingDown.Error()}
	}

	// First pass: how many fresh queue slots does this submission need?
	// (Duplicates within one submission collapse onto the first
	// occurrence, so they count once.) Cache lookups done for counting
	// are kept and reused below, so each key is probed — and its serving
	// level recorded — exactly once.
	type hit struct {
		data  []byte
		level CacheLevel
	}
	needed := 0
	hits := make(map[string]hit, len(jobs))
	inSubmission := make(map[string]bool, len(jobs))
	for _, k := range keys {
		if inSubmission[k] || d.primary[k] != nil {
			continue
		}
		inSubmission[k] = true
		if data, level, ok := d.cache.Get(k); ok {
			hits[k] = hit{data, level}
			continue
		}
		needed++
	}
	if free := cap(d.queue) - len(d.queue); needed > free {
		d.met.rejected.Add(uint64(len(jobs)))
		d.log.Info("submit rejected", "id", origin, "jobs", len(jobs), "needed", needed, "free", free)
		return nil, &RejectError{
			Status: 429,
			Msg:    fmt.Sprintf("queue full: submission needs %d slots, %d free", needed, free),
		}
	}

	out := make([]*jobState, len(jobs))
	for i, job := range jobs {
		key := keys[i]
		d.seq++
		j := newJobState(fmt.Sprintf("j%08d", d.seq), key, job, origin)
		d.jobs[j.ID] = j
		d.order = append(d.order, j.ID)
		d.met.submitted.Inc()
		out[i] = j

		if h, ok := hits[key]; ok {
			d.met.cacheHits.Inc()
			j.complete(JobDone, h.data, "", true, h.level)
			d.met.completed.Inc()
			d.log.Info("job cache hit", "id", origin, "job", j.ID, "key", shortKey(key), "level", h.level)
			continue
		}
		if p := d.primary[key]; p != nil {
			d.met.collapsed.Inc()
			p.mu.Lock()
			p.waiters = append(p.waiters, j)
			p.mu.Unlock()
			d.log.Info("job collapsed", "id", origin, "job", j.ID, "key", shortKey(key), "primary", p.ID)
			continue
		}
		d.primary[key] = j
		// Cannot block: capacity was reserved above under the same lock
		// and only Submit ever sends.
		d.queue <- j
		d.log.Info("job queued", "id", origin, "job", j.ID, "key", shortKey(key))
	}
	return out, nil
}

// shortKey truncates a cache key for log lines (full keys live in the
// job views).
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// Job returns the state for id.
func (d *Daemon) Job(id string) (*jobState, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a queued or running job. Collapsed
// waiters detach individually; cancelling a primary cancels its run
// (and thereby completes every waiter as canceled).
func (d *Daemon) Cancel(id string) (bool, bool) {
	j, ok := d.Job(id)
	if !ok {
		return false, false
	}
	cancelled, completed := j.requestCancel("canceled by client")
	// A queued job completes inside requestCancel and no worker will
	// count it; a running one is counted by the worker when it observes
	// the cancellation.
	d.count(completed, JobCanceled)
	return cancelled, true
}

// worker drains the queue until Shutdown closes it.
func (d *Daemon) worker() {
	defer d.wg.Done()
	for j := range d.queue {
		d.runOne(j)
	}
}

// runOne executes one primary job with panic isolation and per-job
// timeout, writes the result through the cache, and completes the job
// and all collapsed waiters.
func (d *Daemon) runOne(j *jobState) {
	ctx, cancel := context.WithCancel(d.baseCtx)
	if d.opts.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(d.baseCtx, d.opts.JobTimeout)
	}
	defer cancel()
	if !j.markRunning(cancel) {
		// Cancelled while queued; release the primary slot.
		d.finishPrimary(j, JobCanceled, nil, j.view(false).Error)
		return
	}
	d.met.running.Inc()
	defer d.met.running.Dec()
	started := time.Now()
	d.met.jobQueueSeconds.Observe(started.Sub(j.enqueuedAt()).Seconds())
	d.log.Info("job run", "id", j.origin, "job", j.ID, "key", shortKey(j.Key))

	res, err := d.execute(ctx, j.Job)
	if err == nil {
		err = d.sameCapture(j)
	}
	if err != nil {
		status := JobFailed
		if errors.Is(err, context.Canceled) {
			status = JobCanceled
		}
		d.log.Info("job finished", "id", j.origin, "job", j.ID,
			"status", status, "dur", time.Since(started), "error", err.Error())
		d.finishPrimary(j, status, nil, err.Error())
		return
	}
	data, err := json.Marshal(res)
	if err != nil {
		errMsg := fmt.Sprintf("marshal result: %v", err)
		d.log.Info("job finished", "id", j.origin, "job", j.ID,
			"status", JobFailed, "dur", time.Since(started), "error", errMsg)
		d.finishPrimary(j, JobFailed, nil, errMsg)
		return
	}
	d.met.simRuns.Inc()
	d.met.simEvents.Add(res.EventsFired)
	d.met.jobRunSeconds.Observe(time.Since(started).Seconds())
	d.cache.Put(j.Key, data)
	d.log.Info("job finished", "id", j.origin, "job", j.ID,
		"status", JobDone, "dur", time.Since(started), "events", res.EventsFired)
	d.log.Info("cache store", "id", j.origin, "job", j.ID,
		"key", shortKey(j.Key), "bytes", len(data))
	d.finishPrimary(j, JobDone, data, "")
}

// sameCapture fails a trace job whose capture changed after it was
// submitted. The job was keyed by the capture's content at submission,
// but the run replayed whatever the directory held when it started, so
// caching its result under the submitted key would answer a later
// submission of the original content with the rewritten capture's
// result. One window stays open: a capture rewritten and then restored
// (A, then B, then A again) between submission and this check keys to
// A again, so B's result is kept under A's key.
func (d *Daemon) sameCapture(j *jobState) error {
	if j.Job.TraceFile == "" {
		return nil // a synthetic job's key depends on the job alone
	}
	key, err := d.jobKey(j.Job)
	if err != nil {
		return fmt.Errorf("serve: capture %s: %w", j.Job.TraceFile, err)
	}
	if key != j.Key {
		return fmt.Errorf("serve: capture %s changed while queued", j.Job.TraceFile)
	}
	return nil
}

// execute runs the job, converting a panic into an error so one broken
// configuration fails its job instead of killing the daemon.
func (d *Daemon) execute(ctx context.Context, job sweep.Job) (res *system.Results, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("serve: job %s panicked: %v", job, p)
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sweep.ProfileLabels(ctx, job, func(ctx context.Context) { res, err = d.run(ctx, job) })
	return res, err
}

// finishPrimary completes a primary and its collapsed waiters, and
// frees the key for future submissions.
func (d *Daemon) finishPrimary(j *jobState, status JobStatus, data []byte, errMsg string) {
	d.mu.Lock()
	if d.primary[j.Key] == j {
		delete(d.primary, j.Key)
	}
	d.mu.Unlock()

	j.mu.Lock()
	waiters := j.waiters
	j.waiters = nil
	j.mu.Unlock()

	d.count(j.complete(status, data, errMsg, false, CacheMiss), status)
	for _, w := range waiters {
		if status == JobDone {
			d.count(w.complete(JobDone, data, "", true, ServedCollapsed), JobDone)
		} else {
			d.count(w.complete(status, nil, errMsg, false, CacheMiss), status)
		}
	}
}

// count tallies a terminal transition (transitioned reports whether
// complete actually flipped the job; an already-terminal job — e.g.
// cancelled while queued — was counted when it flipped).
func (d *Daemon) count(transitioned bool, status JobStatus) {
	if !transitioned {
		return
	}
	switch status {
	case JobDone:
		d.met.completed.Inc()
	case JobFailed:
		d.met.failed.Inc()
	case JobCanceled:
		d.met.canceled.Inc()
	}
}

// Stats is the /debug/stats payload.
type Stats struct {
	UptimeSeconds float64    `json:"uptime_seconds"`
	Cache         CacheStats `json:"cache"`

	QueueDepth int   `json:"queue_depth"`
	QueueCap   int   `json:"queue_cap"`
	Running    int64 `json:"running"`

	Submitted    uint64 `json:"submitted"`
	SimRuns      uint64 `json:"sim_runs"`
	SimEvents    uint64 `json:"sim_events"`
	CacheServed  uint64 `json:"cache_served"`
	Collapsed    uint64 `json:"collapsed"`
	Rejected     uint64 `json:"rejected"`
	Completed    uint64 `json:"completed"`
	Failed       uint64 `json:"failed"`
	Canceled     uint64 `json:"canceled"`
	JobsRetained int    `json:"jobs_retained"`
	ShuttingDown bool   `json:"shutting_down"`
}

// Snapshot gathers the current daemon statistics. Every counter is read
// from the telemetry registry's instruments — /debug/stats and /metrics
// are two renderings of the same source of truth.
func (d *Daemon) Snapshot() Stats {
	d.mu.Lock()
	depth := len(d.queue)
	capacity := cap(d.queue)
	retained := len(d.jobs)
	closed := d.closed
	d.mu.Unlock()
	return Stats{
		UptimeSeconds: time.Since(d.start).Seconds(),
		Cache:         d.cache.Stats(),
		QueueDepth:    depth,
		QueueCap:      capacity,
		Running:       d.met.running.Value(),
		Submitted:     d.met.submitted.Value(),
		SimRuns:       d.met.simRuns.Value(),
		SimEvents:     d.met.simEvents.Value(),
		CacheServed:   d.met.cacheHits.Value(),
		Collapsed:     d.met.collapsed.Value(),
		Rejected:      d.met.rejected.Value(),
		Completed:     d.met.completed.Value(),
		Failed:        d.met.failed.Value(),
		Canceled:      d.met.canceled.Value(),
		JobsRetained:  retained,
		ShuttingDown:  closed,
	}
}

// Shutdown stops the daemon gracefully: no new submissions are
// accepted, queued and running jobs drain normally until ctx expires,
// after which everything still in flight is cancelled (the simulator
// observes its context within milliseconds), and finally the L1 cache
// contents are persisted to the L2 directory. It returns ctx's error
// when the deadline forced cancellation, else the first persist error.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.BeginDrain()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return errors.New("serve: already shut down")
	}
	d.closed = true
	close(d.queue)
	d.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(drained)
	}()
	var forced error
	select {
	case <-drained:
	case <-ctx.Done():
		forced = ctx.Err()
		d.cancelAll()
		<-drained // cancellation is cooperative and prompt; wait it out
	}
	d.cancelAll() // release the base context in the clean path too
	if err := d.cache.Persist(); err != nil && forced == nil {
		return err
	}
	return forced
}

// Cache exposes the result cache (tests and the stats endpoint).
func (d *Daemon) Cache() *Cache { return d.cache }
