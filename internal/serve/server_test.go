package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"cmpcache/internal/config"
	"cmpcache/internal/sweep"
	"cmpcache/internal/system"
	"cmpcache/internal/txlat"
)

// waitGoroutines polls until the goroutine count settles back to at
// most want (plus slack for runtime background goroutines).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= want+2 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", want, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// blockingRun returns a RunFunc that parks until release is closed (or
// the job's context is cancelled), counting invocations.
func blockingRun(release <-chan struct{}, ran chan<- sweep.Job) sweep.RunFunc {
	return func(ctx context.Context, j sweep.Job) (*system.Results, error) {
		if ran != nil {
			ran <- j
		}
		select {
		case <-release:
			return &system.Results{EventsFired: 1}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func mustDaemon(t *testing.T, opts Options) *Daemon {
	t.Helper()
	d, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

// settledStats polls the daemon's counters until ok accepts them (or a
// deadline passes) and returns the last snapshot. A job's done channel
// closes before its worker tallies the terminal transition, so counters
// read right after waitDone may still lag by one.
func settledStats(d *Daemon, ok func(Stats) bool) Stats {
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := d.Snapshot()
		if ok(st) || time.Now().After(deadline) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
}

func waitDone(t *testing.T, jobs ...*jobState) {
	t.Helper()
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-time.After(60 * time.Second):
			t.Fatalf("job %s never reached a terminal state", j.ID)
		}
	}
}

// TestSingleflightCollapse proves N concurrent identical submissions
// run exactly one simulation: one primary executes, every other
// submission attaches as a waiter and receives the identical bytes.
func TestSingleflightCollapse(t *testing.T) {
	release := make(chan struct{})
	ran := make(chan sweep.Job, 16)
	d := mustDaemon(t, Options{Workers: 2, Run: blockingRun(release, ran)})
	defer d.Shutdown(context.Background())

	job := sweep.Job{Workload: "tp", Mechanism: config.Baseline, RefsPerThread: 1000}
	const n = 5
	states := make([]*jobState, n)
	for i := range states {
		out, err := d.Submit([]sweep.Job{job})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		states[i] = out[0]
	}
	<-ran // the single primary reached the executor
	close(release)
	waitDone(t, states...)

	select {
	case j := <-ran:
		t.Fatalf("second simulation ran for %s; want singleflight collapse", j)
	default:
	}
	var payload []byte
	for i, s := range states {
		st, result := s.snapshot()
		if st != JobDone {
			t.Fatalf("job %d status %s, want done", i, st)
		}
		if payload == nil {
			payload = result
		} else if !bytes.Equal(payload, result) {
			t.Errorf("job %d bytes differ from primary", i)
		}
		v := s.view(false)
		if i == 0 && (v.Cached || v.CacheLevel != CacheMiss) {
			t.Errorf("primary marked cached (%+v)", v)
		}
		if i > 0 && (!v.Cached || v.CacheLevel != ServedCollapsed) {
			t.Errorf("waiter %d not marked collapsed (%+v)", i, v)
		}
	}
	want := func(st Stats) bool { return st.SimRuns == 1 && st.Collapsed == n-1 && st.Completed == n }
	if stats := settledStats(d, want); !want(stats) {
		t.Errorf("stats = %+v, want 1 run, %d collapsed, %d completed", stats, n-1, n)
	}
}

// TestQueueBackpressure proves the bounded queue rejects a whole
// submission with 429 — atomically, leaving no partial state — once the
// backlog is full.
func TestQueueBackpressure(t *testing.T) {
	release := make(chan struct{})
	ran := make(chan sweep.Job, 1)
	d := mustDaemon(t, Options{Workers: 1, QueueDepth: 1, Run: blockingRun(release, ran)})
	defer func() { close(release); d.Shutdown(context.Background()) }()

	mk := func(out int) sweep.Job {
		return sweep.Job{Workload: "tp", Mechanism: config.Baseline, Outstanding: out, RefsPerThread: 1000}
	}
	a, err := d.Submit([]sweep.Job{mk(1)})
	if err != nil {
		t.Fatal(err)
	}
	<-ran // a occupies the single worker; the queue slot is free again
	if _, err := d.Submit([]sweep.Job{mk(2)}); err != nil {
		t.Fatal(err)
	}
	// Queue now full. A two-job submission must be rejected whole even
	// though neither of its jobs was seen before.
	before := d.Snapshot()
	_, err = d.Submit([]sweep.Job{mk(3), mk(4)})
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Status != http.StatusTooManyRequests {
		t.Fatalf("overflow submit err = %v, want 429 RejectError", err)
	}
	after := d.Snapshot()
	if after.JobsRetained != before.JobsRetained || after.Rejected != before.Rejected+2 {
		t.Errorf("rejection had side effects: before %+v after %+v", before, after)
	}
	// A resubmission of an in-flight job still collapses: no slot needed.
	if _, err := d.Submit([]sweep.Job{mk(1)}); err != nil {
		t.Errorf("collapse onto running primary rejected: %v", err)
	}
	_ = a
}

// TestCancelQueuedAndRunning covers both cancellation paths: a queued
// job completes immediately, a running one has its context cancelled
// and the worker observes it.
func TestCancelQueuedAndRunning(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ran := make(chan sweep.Job, 1)
	d := mustDaemon(t, Options{Workers: 1, QueueDepth: 4, Run: blockingRun(release, ran)})
	defer d.Shutdown(context.Background())

	mk := func(out int) sweep.Job {
		return sweep.Job{Workload: "tp", Mechanism: config.Baseline, Outstanding: out, RefsPerThread: 1000}
	}
	running, _ := d.Submit([]sweep.Job{mk(1)})
	<-ran
	queued, _ := d.Submit([]sweep.Job{mk(2)})

	if ok, found := d.Cancel(queued[0].ID); !ok || !found {
		t.Fatalf("cancel queued = (%v, %v)", ok, found)
	}
	waitDone(t, queued[0])
	if st, _ := queued[0].snapshot(); st != JobCanceled {
		t.Errorf("queued job status %s, want canceled", st)
	}

	if ok, found := d.Cancel(running[0].ID); !ok || !found {
		t.Fatalf("cancel running = (%v, %v)", ok, found)
	}
	waitDone(t, running[0])
	if st, _ := running[0].snapshot(); st != JobCanceled {
		t.Errorf("running job status %s, want canceled", st)
	}
	if stats := settledStats(d, func(st Stats) bool { return st.Canceled == 2 }); stats.Canceled != 2 {
		t.Errorf("Canceled = %d, want 2", stats.Canceled)
	}
}

// TestRequestCancelReportsCompletion pins requestCancel's results: it
// completes a queued job itself, leaves a running one to its worker,
// and declines a finished one.
func TestRequestCancelReportsCompletion(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ran := make(chan sweep.Job, 1)
	d := mustDaemon(t, Options{Workers: 1, QueueDepth: 4, Run: blockingRun(release, ran)})
	defer d.Shutdown(context.Background())

	mk := func(out int) sweep.Job {
		return sweep.Job{Workload: "tp", Mechanism: config.Baseline, Outstanding: out, RefsPerThread: 1000}
	}
	running, _ := d.Submit([]sweep.Job{mk(1)})
	<-ran
	queued, _ := d.Submit([]sweep.Job{mk(2)})

	if cancelled, completed := queued[0].requestCancel("test"); !cancelled || !completed {
		t.Errorf("queued: requestCancel = (%v, %v), want (true, true)", cancelled, completed)
	}
	if cancelled, completed := running[0].requestCancel("test"); !cancelled || completed {
		t.Errorf("running: requestCancel = (%v, %v), want (true, false)", cancelled, completed)
	}
	waitDone(t, running[0])
	if cancelled, completed := running[0].requestCancel("test"); cancelled || completed {
		t.Errorf("finished: requestCancel = (%v, %v), want (false, false)", cancelled, completed)
	}
}

// TestCancelRunningCountsOnce cancels running jobs whose run returns as
// soon as its context is cancelled, so the worker completes each job
// while Cancel is still returning. Every cancellation counts once.
func TestCancelRunningCountsOnce(t *testing.T) {
	ran := make(chan sweep.Job, 1)
	d := mustDaemon(t, Options{Workers: 1, QueueDepth: 4, Run: blockingRun(nil, ran)})
	defer d.Shutdown(context.Background())

	const n = 100
	for i := 0; i < n; i++ {
		job := sweep.Job{Workload: "tp", Mechanism: config.Baseline, RefsPerThread: 1000 + i}
		jobs, err := d.Submit([]sweep.Job{job})
		if err != nil {
			t.Fatal(err)
		}
		<-ran
		if ok, found := d.Cancel(jobs[0].ID); !ok || !found {
			t.Fatalf("cancel %d = (%v, %v)", i, ok, found)
		}
		waitDone(t, jobs[0])
	}
	if stats := settledStats(d, func(st Stats) bool { return st.Canceled >= n }); stats.Canceled != n {
		t.Errorf("Canceled = %d, want %d", stats.Canceled, n)
	}
}

// TestJobsCarryProfileLabels: a daemon job's run receives a context
// labelled with its input, mechanism and effective outstanding limit,
// so /debug/pprof/profile splits CPU by job.
func TestJobsCarryProfileLabels(t *testing.T) {
	labels := make(chan [3]string, 1)
	run := func(ctx context.Context, j sweep.Job) (*system.Results, error) {
		var l [3]string
		for i, k := range []string{"input", "mechanism", "outstanding"} {
			l[i], _ = pprof.Label(ctx, k)
		}
		labels <- l
		return &system.Results{EventsFired: 1}, nil
	}
	d := mustDaemon(t, Options{Workers: 1, Run: run})
	defer d.Shutdown(context.Background())
	jobs, err := d.Submit([]sweep.Job{{Workload: "trade2", Mechanism: config.WBHT, RefsPerThread: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, jobs...)
	if got, want := <-labels, [3]string{"trade2", "wbht", "6"}; got != want {
		t.Fatalf("labels (input, mechanism, outstanding) = %q, want %q", got, want)
	}
}

// TestShutdownDrains proves a graceful shutdown finishes queued work,
// persists the L1 to disk, and leaks no goroutines.
func TestShutdownDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	run := func(ctx context.Context, j sweep.Job) (*system.Results, error) {
		time.Sleep(10 * time.Millisecond)
		return &system.Results{EventsFired: 1}, nil
	}
	d := mustDaemon(t, Options{Workers: 2, CacheDir: dir, Run: run})
	var all []*jobState
	for out := 1; out <= 4; out++ {
		s, err := d.Submit([]sweep.Job{{Workload: "tp", Mechanism: config.Baseline, Outstanding: out, RefsPerThread: 1000}})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, s...)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i, j := range all {
		if st, _ := j.snapshot(); st != JobDone {
			t.Errorf("job %d status %s after graceful shutdown, want done", i, st)
		}
	}
	if _, err := d.Submit([]sweep.Job{{Workload: "tp", Mechanism: config.Baseline, RefsPerThread: 1000}}); err == nil {
		t.Error("submit after shutdown succeeded")
	}
	// Every result must be on disk: a cold cache over the same dir
	// serves all four keys from L2.
	cold := newTestCache(t, CacheOptions{Dir: dir})
	for _, j := range all {
		if _, level, ok := cold.Get(j.Key); !ok || level != CacheL2 {
			t.Errorf("key %s not persisted (level %q ok %v)", j.Key[:8], level, ok)
		}
	}
	waitGoroutines(t, before)
}

// TestShutdownDeadlineForcesCancel proves the drain deadline converts
// into cooperative cancellation: a stuck job is cancelled rather than
// blocking shutdown forever.
func TestShutdownDeadlineForcesCancel(t *testing.T) {
	ran := make(chan sweep.Job, 1)
	d := mustDaemon(t, Options{Workers: 1, Run: blockingRun(nil, ran)}) // never released
	s, err := d.Submit([]sweep.Job{{Workload: "tp", Mechanism: config.Baseline, RefsPerThread: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	<-ran
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := d.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded", err)
	}
	if st, _ := s[0].snapshot(); st != JobCanceled {
		t.Errorf("stuck job status %s, want canceled", st)
	}
}

// TestServerEndToEnd exercises the full HTTP surface against the real
// simulator: submit a grid, poll to completion, prove the resubmission
// is served from cache byte-identically with zero new simulation work,
// and read the SSE and latency endpoints.
func TestServerEndToEnd(t *testing.T) {
	d := mustDaemon(t, Options{
		CacheDir:        t.TempDir(),
		Workers:         2,
		MetricsInterval: 2000,
		Latency:         true,
	})
	defer d.Shutdown(context.Background())
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	grid := `{"workloads":["tp"],"mechanisms":["baseline,wbht"],"refs":2000}`
	post := func() (int, SubmitResponse) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(grid))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
		return resp.StatusCode, out
	}

	coldStart := time.Now()
	code, sub := post()
	if code != http.StatusAccepted || len(sub.Jobs) != 2 {
		t.Fatalf("cold submit = %d with %d jobs, want 202 with 2", code, len(sub.Jobs))
	}
	results := make(map[string]json.RawMessage)
	for _, jv := range sub.Jobs {
		results[jv.ID] = pollDone(t, srv.URL, jv.ID)
	}
	coldLatency := time.Since(coldStart)

	stats := getStats(t, srv.URL)
	if stats.SimRuns != 2 || stats.SimEvents == 0 {
		t.Fatalf("after cold run: SimRuns=%d SimEvents=%d, want 2 runs with events", stats.SimRuns, stats.SimEvents)
	}

	// Identical resubmission: answered entirely from cache — 200, zero
	// new simulation events, byte-identical payloads.
	warmStart := time.Now()
	code, resub := post()
	warmLatency := time.Since(warmStart)
	if code != http.StatusOK {
		t.Fatalf("warm submit code = %d, want 200 (all cached)", code)
	}
	for i, jv := range resub.Jobs {
		if jv.Status != JobDone || !jv.Cached || jv.CacheLevel != CacheL1 {
			t.Errorf("warm job %d = %+v, want done/cached/l1", i, jv)
		}
		fresh := results[sub.Jobs[i].ID]
		cached := pollDone(t, srv.URL, jv.ID)
		if !bytes.Equal(fresh, cached) {
			t.Errorf("warm job %d bytes differ from cold run", i)
		}
	}
	after := getStats(t, srv.URL)
	if after.SimRuns != 2 || after.SimEvents != stats.SimEvents {
		t.Errorf("warm resubmission ran simulations: SimRuns %d->%d", stats.SimRuns, after.SimRuns)
	}
	if after.CacheServed != 2 {
		t.Errorf("CacheServed = %d, want 2", after.CacheServed)
	}
	t.Logf("request latency: cold %v, warm %v", coldLatency, warmLatency)

	// Byte identity against a fresh out-of-process-style run: the same
	// job through a brand-new simulator with the same observability
	// settings must marshal to the daemon's exact bytes.
	var job sweep.Job
	if err := json.Unmarshal(mustMarshal(t, sub.Jobs[0].Job), &job); err != nil {
		t.Fatal(err)
	}
	sim := sweep.NewSimulator()
	sim.MetricsInterval = 2000
	sim.Latency = &txlat.Config{}
	res, err := sim.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	direct := mustMarshal(t, res)
	// Compare against the stored cache payload: the HTTP layer re-indents
	// embedded JSON for readability, the cache holds the exact bytes.
	stored, _, ok := d.Cache().Get(sub.Jobs[0].Key)
	if !ok {
		t.Fatal("result missing from cache")
	}
	if !bytes.Equal(direct, stored) {
		t.Error("daemon result bytes differ from a direct simulator run")
	}

	// SSE replay on a finished job: status, at least one metrics sample,
	// and a done frame.
	events := readSSE(t, srv.URL+"/v1/jobs/"+sub.Jobs[0].ID+"/events")
	if events["status"] == 0 || events["sample"] == 0 || events["done"] != 1 {
		t.Errorf("SSE replay frames = %v, want status+samples+one done", events)
	}

	// Latency report endpoint.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + sub.Jobs[0].ID + "/latency")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"Workload"`)) {
		t.Errorf("latency endpoint = %d %s", resp.StatusCode, body)
	}

	// Cancelling a finished job conflicts.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+sub.Jobs[0].ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("DELETE finished job = %d, want 409", resp.StatusCode)
		}
	}

	// Bad requests are 400s.
	for _, body := range []string{`{"jobs":[{"workload":"nope"}]}`, `{"unknown_field":1}`, `not json`} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q = %d, want 400", body, resp.StatusCode)
		}
	}
}

// pollDone polls GET /v1/jobs/{id} until the job is done and returns
// its result bytes.
func pollDone(t *testing.T, base, id string) json.RawMessage {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case v.Status == JobDone:
			return v.Result
		case v.Status.Terminal():
			t.Fatalf("job %s reached %s: %s", id, v.Status, v.Error)
		case time.Now().After(deadline):
			t.Fatalf("job %s still %s after deadline", id, v.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func getStats(t *testing.T, base string) Stats {
	t.Helper()
	resp, err := http.Get(base + "/debug/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s Stats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

// readSSE consumes the event stream until the done frame (or EOF) and
// returns a count per event type.
func readSSE(t *testing.T, url string) map[string]int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	counts := make(map[string]int)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if typ, ok := strings.CutPrefix(line, "event: "); ok {
			counts[typ]++
			if typ == "done" {
				return counts
			}
		}
	}
	t.Fatalf("stream ended without a done frame: %v (err %v)", counts, sc.Err())
	return nil
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
