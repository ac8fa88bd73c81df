package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"

	"cmpcache/internal/sweep"
)

// SubmitRequest is the POST /v1/jobs body: either an explicit job list
// or a sweep grid (the cross product of the axes, with cmpsweep's
// defaulting: empty workloads/mechanisms mean "all", empty outstanding
// means the paper default).
type SubmitRequest struct {
	// Jobs, when non-empty, is the explicit list and the grid axes are
	// ignored.
	Jobs []sweep.Job `json:"jobs,omitempty"`

	Workloads []string `json:"workloads,omitempty"`
	// Traces are captured-trace inputs (sharded trace directories, as
	// server-local paths) swept alongside — or instead of — the
	// synthetic workloads.
	Traces      []string `json:"traces,omitempty"`
	Mechanisms  []string `json:"mechanisms,omitempty"`
	Outstanding []int    `json:"outstanding,omitempty"`
	TableSizes  []int    `json:"table_sizes,omitempty"`
	Refs        int      `json:"refs,omitempty"`
}

// expand materializes the request into concrete jobs. An explicit job's
// workload or trace is checked later, when SubmitOrigin keys it.
func (r *SubmitRequest) expand() ([]sweep.Job, error) {
	if len(r.Jobs) > 0 {
		for _, j := range r.Jobs {
			if j.RefsPerThread < 0 {
				return nil, fmt.Errorf("job RefsPerThread = %d, must be >= 0", j.RefsPerThread)
			}
		}
		return r.Jobs, nil
	}
	plan := sweep.Plan{
		Workloads:     r.Workloads,
		TraceFiles:    r.Traces,
		Outstanding:   r.Outstanding,
		TableSizes:    r.TableSizes,
		RefsPerThread: r.Refs,
	}
	for _, m := range r.Mechanisms {
		parsed, err := sweep.ParseMechanisms(m)
		if err != nil {
			return nil, err
		}
		plan.Mechanisms = append(plan.Mechanisms, parsed...)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan.Jobs(), nil
}

// SubmitResponse answers POST /v1/jobs with one entry per job, in
// submission order.
type SubmitResponse struct {
	Jobs []JobView `json:"jobs"`
}

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs              submit a config or grid -> job IDs
//	GET    /v1/jobs              list all jobs (status only)
//	GET    /v1/jobs/{id}         status + result JSON when done
//	DELETE /v1/jobs/{id}         cancel a queued/running job
//	GET    /v1/jobs/{id}/events  SSE: status transitions + interval-metrics samples
//	GET    /v1/jobs/{id}/latency stage-attributed latency report (txlat)
//	GET    /healthz              liveness
//	GET    /readyz               readiness (503 before the pool is up / once drain begins)
//	GET    /metrics              Prometheus text exposition of the telemetry registry
//	GET    /debug/stats          cache/queue/job counters (JSON view of the same registry)
//	GET    /debug/pprof/         runtime profiles (CPU, heap, goroutine, ...)
//
// Every route runs inside the telemetry middleware: request-ID
// assignment, per-route latency histograms, and structured logging.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", d.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", d.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", d.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", d.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", d.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/latency", d.handleLatency)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !d.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		d.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /debug/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Snapshot())
	})
	// net/http/pprof only self-registers on the default mux; wire its
	// handlers onto ours explicitly.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return d.withTelemetry(mux)
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	jobs, err := req.expand()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	states, err := d.SubmitOrigin(jobs, RequestID(r.Context()))
	if err != nil {
		status := http.StatusInternalServerError
		var rej *RejectError
		if errors.As(err, &rej) {
			status = rej.Status
		}
		httpError(w, status, "%v", err)
		return
	}
	resp := SubmitResponse{Jobs: make([]JobView, len(states))}
	allDone := true
	for i, s := range states {
		resp.Jobs[i] = s.view(false)
		if resp.Jobs[i].Status != JobDone {
			allDone = false
		}
	}
	// 200 when every job was answered from the cache, 202 otherwise.
	code := http.StatusAccepted
	if allDone {
		code = http.StatusOK
	}
	writeJSON(w, code, resp)
}

func (d *Daemon) handleList(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	ids := append([]string(nil), d.order...)
	d.mu.Unlock()
	views := make([]JobView, 0, len(ids))
	for _, id := range ids {
		if j, ok := d.Job(id); ok {
			views = append(views, j.view(false))
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{views})
}

func (d *Daemon) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := d.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.view(true))
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	cancelled, found := d.Cancel(r.PathValue("id"))
	switch {
	case !found:
		httpError(w, http.StatusNotFound, "no such job")
	case !cancelled:
		httpError(w, http.StatusConflict, "job already finished")
	default:
		writeJSON(w, http.StatusOK, struct {
			Canceled bool `json:"canceled"`
		}{true})
	}
}

// handleEvents streams the job's lifecycle as server-sent events:
// "status" frames on every transition, then — once the job completes —
// one "sample" frame per interval-metrics window collected during the
// run, and a final "done" frame. Late subscribers to a finished job
// receive the sample replay and "done" immediately.
func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := d.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	d.met.sse.Inc()
	defer d.met.sse.Dec()
	ch := j.subscribe(16)
	defer j.unsubscribe(ch)

	send := func(typ string, data []byte) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", typ, data)
		flusher.Flush()
	}
	if data, err := json.Marshal(j.view(false)); err == nil {
		send("status", data)
	}
	for {
		if st, _ := j.snapshot(); st.Terminal() {
			break
		}
		select {
		case ev := <-ch:
			send(ev.Type, ev.Data)
		case <-j.done:
		case <-r.Context().Done():
			return
		}
	}
	// Terminal: emit the final status, the metrics samples, then done.
	final := j.view(false)
	if data, err := json.Marshal(final); err == nil {
		send("status", data)
	}
	_, result := j.snapshot()
	if len(result) > 0 {
		var payload struct {
			Metrics *struct {
				Samples []json.RawMessage `json:"samples"`
			} `json:"Metrics"`
		}
		if err := json.Unmarshal(result, &payload); err == nil && payload.Metrics != nil {
			for _, s := range payload.Metrics.Samples {
				send("sample", s)
			}
		}
	}
	if data, err := json.Marshal(struct {
		Status     JobStatus  `json:"status"`
		Cached     bool       `json:"cached"`
		CacheLevel CacheLevel `json:"cache_level,omitempty"`
		Error      string     `json:"error,omitempty"`
	}{final.Status, final.Cached, final.CacheLevel, final.Error}); err == nil {
		send("done", data)
	}
}

// handleLatency extracts the stage-attributed latency report (txlat,
// DESIGN.md §13) from the job's result, in the cmpsim -lat-out /
// cmpreport file format.
func (d *Daemon) handleLatency(w http.ResponseWriter, r *http.Request) {
	j, ok := d.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	st, result := j.snapshot()
	if st != JobDone {
		httpError(w, http.StatusConflict, "job status is %s", st)
		return
	}
	var payload struct {
		Cycles  uint64          `json:"Cycles"`
		Latency json.RawMessage `json:"Latency"`
	}
	if err := json.Unmarshal(result, &payload); err != nil {
		httpError(w, http.StatusInternalServerError, "decode result: %v", err)
		return
	}
	if len(payload.Latency) == 0 || string(payload.Latency) == "null" {
		httpError(w, http.StatusNotFound, "latency collection is disabled on this server (start cmpserved with -latency)")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Workload    string          `json:"Workload"`
		Mechanism   string          `json:"Mechanism"`
		Outstanding int             `json:"Outstanding"`
		Cycles      uint64          `json:"Cycles"`
		Latency     json.RawMessage `json:"Latency"`
	}{
		Workload:    j.Job.Input(),
		Mechanism:   j.Job.Mechanism.String(),
		Outstanding: j.Job.Config().MaxOutstanding,
		Cycles:      payload.Cycles,
		Latency:     payload.Latency,
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}
