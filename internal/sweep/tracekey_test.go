package sweep

import (
	"context"
	"path/filepath"
	"testing"

	"cmpcache/internal/config"
	"cmpcache/internal/trace"
	"cmpcache/internal/workload"
)

// genTrace synthesizes a small deterministic workload trace for the
// trace-key and trace-replay tests.
func genTrace(t testing.TB, name string, refs int) *trace.Trace {
	t.Helper()
	p, err := workload.ByName(name)
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

func writeShardedTrace(t testing.TB, tr *trace.Trace) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "capture.cmps")
	if _, err := trace.WriteSharded(dir, tr, trace.ShardOptions{Shards: 2, BatchRecords: 64}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestKeyTraceContentSeparation is the cache-safety acceptance
// criterion: two trace inputs differing only in file content must hash
// apart, and the same content at two paths must hash together.
func TestKeyTraceContentSeparation(t *testing.T) {
	trA := genTrace(t, "tp", 200)
	trB := genTrace(t, "tp", 200)
	trB.Records[0].Addr ^= 0x80 // one-byte semantic difference

	dirA := writeShardedTrace(t, trA)
	dirB := writeShardedTrace(t, trB)
	dirA2 := writeShardedTrace(t, trA) // same content, different path

	kA, err := Key(Job{TraceFile: dirA, Mechanism: config.WBHT})
	if err != nil {
		t.Fatal(err)
	}
	kB, err := Key(Job{TraceFile: dirB, Mechanism: config.WBHT})
	if err != nil {
		t.Fatal(err)
	}
	kA2, err := Key(Job{TraceFile: dirA2, Mechanism: config.WBHT})
	if err != nil {
		t.Fatal(err)
	}
	if kA == kB {
		t.Fatal("keys collide for traces differing in content")
	}
	if kA != kA2 {
		t.Fatal("keys differ for identical content at different paths")
	}
}

// TestKeyTraceNeverAliasesSynthetic: replaying a capture of workload W
// must not share a key with running W synthetically, even though the
// reference streams are identical.
func TestKeyTraceNeverAliasesSynthetic(t *testing.T) {
	tr := genTrace(t, "tp", 200)
	dir := writeShardedTrace(t, tr)
	kTrace, err := Key(Job{TraceFile: dir, Mechanism: config.WBHT})
	if err != nil {
		t.Fatal(err)
	}
	kSynth, err := Key(Job{Workload: "tp", Mechanism: config.WBHT, RefsPerThread: 200})
	if err != nil {
		t.Fatal(err)
	}
	if kTrace == kSynth {
		t.Fatal("trace-replay job aliases its synthetic twin")
	}
}

// TestKeyTraceRejectsAmbiguousJob: a job naming both a trace and a
// synthetic workload is a contradiction, not a preference.
func TestKeyTraceRejectsAmbiguousJob(t *testing.T) {
	if _, err := Key(Job{TraceFile: "x.cmps", Workload: "tp"}); err == nil {
		t.Fatal("job with both TraceFile and Workload accepted")
	}
}

// TestRunTraceJobMatchesSynthetic replays a capture through the real
// sweep pool and checks the result equals the synthetic run it was
// captured from (same reference stream, same simulation).
func TestRunTraceJobMatchesSynthetic(t *testing.T) {
	tr := genTrace(t, "tp", 200)
	dir := writeShardedTrace(t, tr)
	jobs := []Job{
		{Workload: "tp", RefsPerThread: 200, Mechanism: config.WBHT},
		{TraceFile: dir, Mechanism: config.WBHT},
	}
	results := Run(context.Background(), jobs, Options{Workers: 2})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d (%s): %v", i, r.Job, r.Err)
		}
	}
	if results[0].Cached || results[1].Cached {
		t.Fatal("trace job deduplicated against synthetic twin — keys alias")
	}
	if results[0].Results.Cycles != results[1].Results.Cycles {
		t.Fatalf("trace replay cycles %d != synthetic %d",
			results[1].Results.Cycles, results[0].Results.Cycles)
	}
}

// TestPlanTraceFiles pins the grid semantics: traces alone suppress the
// workload default, and Validate rejects unreadable trace inputs.
func TestPlanTraceFiles(t *testing.T) {
	tr := genTrace(t, "tp", 100)
	dir := writeShardedTrace(t, tr)
	p := Plan{TraceFiles: []string{dir}, Mechanisms: []config.Mechanism{config.Baseline, config.WBHT}}
	jobs := p.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("trace-only plan produced %d jobs, want 2", len(jobs))
	}
	for _, j := range jobs {
		if j.TraceFile != dir || j.Workload != "" {
			t.Fatalf("job %+v: want TraceFile-only input", j)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("valid trace plan rejected: %v", err)
	}
	bad := Plan{TraceFiles: []string{filepath.Join(t.TempDir(), "missing.cmps")}}
	if err := bad.Validate(); err == nil {
		t.Fatal("plan with missing trace input validated")
	}

	both := Plan{
		Workloads:  []string{"tp"},
		TraceFiles: []string{dir},
		Mechanisms: []config.Mechanism{config.Baseline},
	}
	if n := len(both.Jobs()); n != 2 {
		t.Fatalf("mixed plan produced %d jobs, want 2 (one synthetic + one trace)", n)
	}
}
