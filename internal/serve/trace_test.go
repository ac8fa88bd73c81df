package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"cmpcache/internal/trace"
	"cmpcache/internal/workload"
)

// TestServerTraceSubmit submits a captured-trace job over HTTP, then
// rewrites the capture in place and resubmits: the second run must be a
// cache miss (the key follows the content, not the path) with a
// different simulated outcome.
func TestServerTraceSubmit(t *testing.T) {
	gen := func(refs int) *trace.Trace {
		p, err := workload.ByName("tp")
		if err != nil {
			t.Fatal(err)
		}
		p.RefsPerThread = refs
		tr, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	dir := filepath.Join(t.TempDir(), "capture.cmps")
	if _, err := trace.WriteSharded(dir, gen(500), trace.ShardOptions{Shards: 2, BatchRecords: 128}); err != nil {
		t.Fatal(err)
	}

	d := mustDaemon(t, Options{Workers: 2})
	defer d.Shutdown(context.Background())
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	body := fmt.Sprintf(`{"traces":[%q],"mechanisms":["baseline"]}`, dir)
	post := func() SubmitResponse {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit = %d", resp.StatusCode)
		}
		var out SubmitResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if len(out.Jobs) != 1 {
			t.Fatalf("submitted %d jobs, want 1", len(out.Jobs))
		}
		return out
	}

	first := post()
	firstBytes := pollDone(t, srv.URL, first.Jobs[0].ID)
	if stats := d.Snapshot(); stats.SimRuns != 1 {
		t.Fatalf("SimRuns = %d after first trace run, want 1", stats.SimRuns)
	}

	// Same capture resubmitted: pure cache hit, zero new simulation.
	again := post()
	if !again.Jobs[0].Cached {
		t.Fatalf("identical trace resubmission not served from cache: %+v", again.Jobs[0])
	}
	if !bytes.Equal(firstBytes, pollDone(t, srv.URL, again.Jobs[0].ID)) {
		t.Fatal("cached trace result bytes differ")
	}

	// Rewrite the capture in place (same path, different content): the
	// daemon must treat it as a new simulation, not serve stale bytes.
	if _, err := trace.WriteSharded(dir, gen(600), trace.ShardOptions{Shards: 2, BatchRecords: 128}); err != nil {
		t.Fatal(err)
	}
	edited := post()
	editedBytes := pollDone(t, srv.URL, edited.Jobs[0].ID)
	if edited.Jobs[0].Cached {
		t.Fatal("edited trace served from cache — key followed the path, not the content")
	}
	if bytes.Equal(firstBytes, editedBytes) {
		t.Fatal("edited trace produced byte-identical results")
	}
	if stats := d.Snapshot(); stats.SimRuns != 2 {
		t.Fatalf("SimRuns = %d after edited rerun, want 2", stats.SimRuns)
	}
}

// TestLatencyNamesTraceCapture: a trace job's latency report names its
// capture as the run's workload, which cmpreport sorts and labels by.
func TestLatencyNamesTraceCapture(t *testing.T) {
	p, err := workload.ByName("tp")
	if err != nil {
		t.Fatal(err)
	}
	p.RefsPerThread = 300
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "capture.cmps")
	if _, err := trace.WriteSharded(dir, tr, trace.ShardOptions{Shards: 2, BatchRecords: 128}); err != nil {
		t.Fatal(err)
	}

	d := mustDaemon(t, Options{Workers: 1, Latency: true})
	defer d.Shutdown(context.Background())
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	body := fmt.Sprintf(`{"traces":[%q],"mechanisms":["baseline"]}`, dir)
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || len(sub.Jobs) != 1 {
		t.Fatalf("submit = %d, %d jobs, %v", resp.StatusCode, len(sub.Jobs), err)
	}
	pollDone(t, srv.URL, sub.Jobs[0].ID)

	resp, err = http.Get(srv.URL + "/v1/jobs/" + sub.Jobs[0].ID + "/latency")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var run struct{ Workload string }
	if err := json.NewDecoder(resp.Body).Decode(&run); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("latency endpoint = %d, %v", resp.StatusCode, err)
	}
	if run.Workload != "trace:capture.cmps" {
		t.Errorf("latency Workload = %q, want %q", run.Workload, "trace:capture.cmps")
	}
}

// TestSubmitRejectsAmbiguousTraceJob: an explicit job naming both a
// trace and a workload is a 400, not a simulation.
func TestSubmitRejectsAmbiguousTraceJob(t *testing.T) {
	d := mustDaemon(t, Options{Workers: 1})
	defer d.Shutdown(context.Background())
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	body := `{"jobs":[{"Workload":"tp","TraceFile":"x.cmps"}]}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("submit = %d, want 400", resp.StatusCode)
	}
}

// TestSubmitRejectsNegativeRefs: a negative workload length, in an
// explicit job or in a grid, is a 400 naming the value, not a run of the
// profile's default length.
func TestSubmitRejectsNegativeRefs(t *testing.T) {
	d := mustDaemon(t, Options{Workers: 1})
	defer d.Shutdown(context.Background())
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	for _, body := range []string{
		`{"jobs":[{"Workload":"tp","RefsPerThread":-5}]}`,
		`{"workloads":["tp"],"mechanisms":["base"],"refs":-5}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.String(), "RefsPerThread = -5,") {
			t.Errorf("submit %s = %d %q, want 400 naming RefsPerThread = -5", body, resp.StatusCode, msg.String())
		}
	}
}
