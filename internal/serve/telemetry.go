package serve

import (
	"context"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"cmpcache/internal/telemetry"
)

// This file is the daemon's observability surface (DESIGN.md §18): the
// metric inventory behind GET /metrics, the HTTP middleware that feeds
// the per-route request histograms and the structured request log, and
// the request-ID plumbing that threads one ID through
// submit → run → cache-store so a slow job can be traced across layers.

// daemonMetrics holds every instrument the daemon updates on its hot
// paths. All instruments come from the daemon's registry; /debug/stats
// is re-derived from these same counters (one source of truth).
type daemonMetrics struct {
	running *telemetry.Gauge // in-flight simulation runs

	submitted *telemetry.Counter
	collapsed *telemetry.Counter
	cacheHits *telemetry.Counter // submissions answered from the result cache
	rejected  *telemetry.Counter
	completed *telemetry.Counter
	failed    *telemetry.Counter
	canceled  *telemetry.Counter
	simRuns   *telemetry.Counter
	simEvents *telemetry.Counter

	sse *telemetry.Gauge // connected /events subscribers

	httpRequests *telemetry.CounterVec   // {route, code}
	httpSeconds  *telemetry.HistogramVec // {route, code}

	jobQueueSeconds *telemetry.Histogram // enqueue -> start, executed primaries
	jobRunSeconds   *telemetry.Histogram // start -> finish, executed primaries

	traceOpens *telemetry.Counter // trace-source container opens
	traceHits  *telemetry.Counter // trace-source cache hits
}

func newDaemonMetrics(reg *telemetry.Registry) *daemonMetrics {
	return &daemonMetrics{
		running: reg.Gauge("cmpserved_inflight_runs",
			"Simulations currently executing on the worker pool."),
		submitted: reg.Counter("cmpserved_jobs_submitted_total",
			"Jobs accepted by POST /v1/jobs."),
		collapsed: reg.Counter("cmpserved_jobs_collapsed_total",
			"Jobs collapsed onto an identical in-flight primary (singleflight)."),
		cacheHits: reg.Counter("cmpserved_cache_hits_total",
			"Submissions answered from the result cache with zero simulation work."),
		rejected: reg.Counter("cmpserved_jobs_rejected_total",
			"Jobs rejected because the queue could not hold the submission."),
		completed: reg.Counter("cmpserved_jobs_completed_total",
			"Jobs that reached the done state."),
		failed: reg.Counter("cmpserved_jobs_failed_total",
			"Jobs that reached the failed state."),
		canceled: reg.Counter("cmpserved_jobs_canceled_total",
			"Jobs that reached the canceled state."),
		simRuns: reg.Counter("cmpserved_sim_runs_total",
			"Simulations actually executed (cache misses that ran)."),
		simEvents: reg.Counter("cmpserved_sim_events_total",
			"Discrete simulation events fired across all executed runs."),
		sse: reg.Gauge("cmpserved_sse_subscribers",
			"Currently connected /v1/jobs/{id}/events subscribers."),
		httpRequests: reg.CounterVec("cmpserved_http_requests_total",
			"HTTP requests served, by mux route and status code.",
			"route", "code"),
		httpSeconds: reg.HistogramVec("cmpserved_http_request_seconds",
			"HTTP request latency in seconds, by mux route and status code.",
			telemetry.SecondsBuckets, "route", "code"),
		jobQueueSeconds: reg.Histogram("cmpserved_job_queue_seconds",
			"Time executed jobs spent queued before a worker picked them up.",
			telemetry.SecondsBuckets),
		jobRunSeconds: reg.Histogram("cmpserved_job_run_seconds",
			"Wall-clock simulation time of executed jobs.",
			telemetry.SecondsBuckets),
		traceOpens: reg.Counter("cmpserved_trace_source_opens_total",
			"Trace-source opens (one per sharded capture directory and content version)."),
		traceHits: reg.Counter("cmpserved_trace_source_cache_hits_total",
			"Trace-source lookups served from the simulator's source cache."),
	}
}

// registerGaugeFuncs exposes the daemon state that is read, not
// counted: queue occupancy, uptime, readiness, cache occupancy, and the
// process goroutine count. Called once from New, after the daemon
// struct is complete.
func (d *Daemon) registerGaugeFuncs(reg *telemetry.Registry) {
	reg.GaugeFunc("cmpserved_queue_depth",
		"Jobs accepted but not yet running.",
		func() float64 { return float64(len(d.queue)) })
	reg.GaugeFunc("cmpserved_queue_capacity",
		"Job queue bound; submissions that would overflow it are rejected.",
		func() float64 { return float64(cap(d.queue)) })
	reg.GaugeFunc("cmpserved_jobs_retained",
		"Job records retained in memory (all states).",
		func() float64 {
			d.mu.Lock()
			n := len(d.jobs)
			d.mu.Unlock()
			return float64(n)
		})
	reg.GaugeFunc("cmpserved_uptime_seconds",
		"Seconds since the daemon started.",
		func() float64 { return time.Since(d.start).Seconds() })
	reg.GaugeFunc("cmpserved_ready",
		"1 while the daemon accepts work, 0 before the pool is up or once drain begins.",
		func() float64 {
			if d.Ready() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("cmpserved_result_cache_l1_entries",
		"Current result-cache L1 entry count.",
		func() float64 { return float64(d.cache.Stats().L1Entries) })
	reg.GaugeFunc("cmpserved_result_cache_l1_bytes",
		"Current result-cache L1 payload bytes.",
		func() float64 { return float64(d.cache.Stats().L1Bytes) })
	reg.GaugeFunc("go_goroutines",
		"Goroutines in the daemon process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
}

// --- request IDs ---

type requestIDKey struct{}

// RequestID returns the request ID threaded through ctx by the HTTP
// middleware ("" outside a request).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// nextRequestID mints a process-unique ID: a per-start base plus a
// sequence number, short enough to grep and stable across log lines.
func (d *Daemon) nextRequestID() string {
	return d.idBase + "-" + strconv.FormatUint(d.reqSeq.Add(1), 10)
}

// --- instrumenting middleware ---

// statusWriter records the response status and byte count while passing
// Flush through (the SSE handler type-asserts http.Flusher).
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController pass-through.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// withTelemetry wraps the API mux: it assigns (or adopts) the request
// ID, serves the request through a status-recording writer, then feeds
// the per-route counters/histograms and emits one structured log line.
// The route label is the mux pattern (e.g. "GET /v1/jobs/{id}"), so
// label cardinality is bounded by the route table, never by client
// input.
func (d *Daemon) withTelemetry(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = d.nextRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))

		// The pattern is only set on the request copy the mux passes to
		// the matched handler; look it up here for the label.
		_, route := mux.Handler(r)
		if route == "" {
			route = "unmatched"
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		mux.ServeHTTP(sw, r)
		elapsed := time.Since(start)

		code := sw.status
		if code == 0 {
			code = http.StatusOK
		}
		codeStr := strconv.Itoa(code)
		d.met.httpRequests.With(route, codeStr).Inc()
		d.met.httpSeconds.With(route, codeStr).Observe(elapsed.Seconds())
		d.log.Info("http",
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"status", code,
			"bytes", sw.bytes,
			"dur", elapsed,
		)
	})
}
