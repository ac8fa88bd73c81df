package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cmpcache/internal/config"
	"cmpcache/internal/system"
	"cmpcache/internal/telemetry"
	"cmpcache/internal/trace"
)

// captureJobs returns eight distinct jobs over the capture at dir.
func captureJobs(dir string) []Job {
	var jobs []Job
	for _, o := range []int{2, 6} {
		for _, m := range []config.Mechanism{config.Baseline, config.WBHT, config.Snarf, config.Combined} {
			jobs = append(jobs, Job{TraceFile: dir, Mechanism: m, Outstanding: o})
		}
	}
	return jobs
}

// streamed runs j over a store of its own, the way a capture too large
// to decode replays, and returns the Results JSON.
func streamed(t *testing.T, j Job) []byte {
	t.Helper()
	sh, err := trace.OpenSharded(j.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	sys, err := system.NewStream(j.Config(), sh)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// openUnder returns the targets of this process's open file descriptors
// that lie under any of dirs. It skips the test where /proc/self/fd does
// not list them.
func openUnder(t *testing.T, dirs ...string) []string {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/self/fd")
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip(err)
	}
	var open []string
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err != nil {
			continue // the descriptor ReadDir itself held, now closed
		}
		for _, dir := range dirs {
			if strings.HasPrefix(target, dir+string(filepath.Separator)) {
				open = append(open, target)
			}
		}
	}
	return open
}

// TestSimulatorDecodesCaptureOnce: eight jobs over one capture decode
// it once, at one worker and at two, and every result is byte-identical
// to a run streamed from the store.
func TestSimulatorDecodesCaptureOnce(t *testing.T) {
	dir := writeShardedTrace(t, genTrace(t, "tp", 200))
	jobs := captureJobs(dir)
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		want[i] = streamed(t, j)
	}
	for _, workers := range []int{1, 2} {
		met := NewPoolMetrics(nil, "")
		results := Run(context.Background(), jobs, Options{Workers: workers, Metrics: met})
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("workers %d, job %s: %v", workers, r.Job, r.Err)
			}
			got, err := json.Marshal(r.Results)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("workers %d, job %s: decoded replay differs from the streamed run", workers, r.Job)
			}
		}
		if opens, hits := met.SourceOpens.Value(), met.SourceHits.Value(); opens != 1 || hits != 7 {
			t.Errorf("workers %d: SourceOpens %d, SourceHits %d; want 1 and 7", workers, opens, hits)
		}
	}
}

// TestSimulatorKeepsOneCapture pins the one-capture policy: captures
// requested A, B, A are decoded three times.
func TestSimulatorKeepsOneCapture(t *testing.T) {
	a := writeShardedTrace(t, genTrace(t, "tp", 100))
	b := writeShardedTrace(t, genTrace(t, "trade2", 100))
	sim := NewSimulator()
	sim.SourceOpens, sim.SourceHits = &telemetry.Counter{}, &telemetry.Counter{}
	for _, dir := range []string{a, b, a} {
		if _, err := sim.source(context.Background(), Job{TraceFile: dir}); err != nil {
			t.Fatal(err)
		}
	}
	if opens, hits := sim.SourceOpens.Value(), sim.SourceHits.Value(); opens != 3 || hits != 0 {
		t.Fatalf("SourceOpens %d, SourceHits %d; want 3 and 0", opens, hits)
	}
}

// TestSimulatorClosesCaptures: once a grid over three captures has
// finished, the process holds no file under any capture directory,
// though the Simulator that ran it is still alive.
func TestSimulatorClosesCaptures(t *testing.T) {
	var dirs []string
	var jobs []Job
	for _, w := range []string{"tp", "trade2", "cpw2"} {
		dir := writeShardedTrace(t, genTrace(t, w, 100))
		dirs = append(dirs, dir)
		jobs = append(jobs, captureJobs(dir)[:2]...)
	}
	sim := NewSimulator()
	for i, r := range Run(context.Background(), jobs, Options{Workers: 2, Run: sim.Run}) {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	if open := openUnder(t, dirs...); len(open) > 0 {
		t.Fatalf("%d shard files still open after the grid: %v", len(open), open)
	}
	runtime.KeepAlive(sim)
}

// TestSimulatorStreamsLargeCapture: a capture above the decode limit
// streams from a store of its own per run, resident-buffering at most
// one batch per thread, and its files close when Run returns.
func TestSimulatorStreamsLargeCapture(t *testing.T) {
	const refs, batch = 200, 64 // writeShardedTrace's batch size
	tr := genTrace(t, "tp", refs)
	dir := writeShardedTrace(t, tr)
	sim := NewSimulator()
	sim.SourceOpens, sim.SourceHits = &telemetry.Counter{}, &telemetry.Counter{}
	sim.decodeLimit = int64(len(tr.Records)) - 1
	j := Job{TraceFile: dir, Mechanism: config.WBHT}

	src, err := sim.source(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	sh, ok := src.(*trace.Sharded)
	if !ok {
		t.Fatalf("source is a %T, want a streaming *trace.Sharded", src)
	}
	sys, err := system.NewStream(j.Config(), sh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if max, bound := sh.MaxBufferedRecords(), int64(tr.Threads*batch); max == 0 || max > bound {
		t.Fatalf("MaxBufferedRecords = %d, want in (0, %d]", max, bound)
	}
	sh.Close()

	want := streamed(t, j)
	for i := 0; i < 2; i++ {
		res, err := sim.Run(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d differs from the streamed reference", i)
		}
		if open := openUnder(t, dir); len(open) > 0 {
			t.Fatalf("run %d left %d shard files open: %v", i, len(open), open)
		}
	}
	if opens, hits := sim.SourceOpens.Value(), sim.SourceHits.Value(); opens != 3 || hits != 0 {
		t.Fatalf("SourceOpens %d, SourceHits %d; want 3 per-run opens and no hit", opens, hits)
	}
}

// TestSimulatorConcurrentFirstRequests: callers asking for one capture
// at once share one decode.
func TestSimulatorConcurrentFirstRequests(t *testing.T) {
	dir := writeShardedTrace(t, genTrace(t, "tp", 100))
	sim := NewSimulator()
	sim.SourceOpens, sim.SourceHits = &telemetry.Counter{}, &telemetry.Counter{}
	const callers = 4
	srcs := make([]trace.Source, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			src, err := sim.source(context.Background(), Job{TraceFile: dir})
			if err != nil {
				t.Error(err)
			}
			srcs[i] = src
		}()
	}
	close(start)
	wg.Wait()
	for i, src := range srcs {
		if src == nil || src != srcs[0] {
			t.Fatalf("caller %d got source %p, caller 0 %p", i, src, srcs[0])
		}
	}
	if opens, hits := sim.SourceOpens.Value(), sim.SourceHits.Value(); opens != 1 || hits != callers-1 {
		t.Fatalf("SourceOpens %d, SourceHits %d; want 1 and %d", opens, hits, callers-1)
	}
}

// TestSimulatorCorruptBatchFailsJob: a capture whose last batch does
// not decode fails its job with the decoder's error, which names the
// thread and batch; the failure is not cached, and the next job over an
// intact capture succeeds.
func TestSimulatorCorruptBatchFailsJob(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.cmps")
	// One shard of 64-record batches: the file ends with thread 15's
	// fourth batch (its records 192-199).
	if _, err := trace.WriteSharded(bad, genTrace(t, "tp", 200), trace.ShardOptions{Shards: 1, BatchRecords: 64}); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(bad, trace.ShardFileName(0))
	b, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	copy(b[len(b)-4:], []byte{0xff, 0xff, 0xff, 0xff})
	if err := os.WriteFile(shard, b, 0o644); err != nil {
		t.Fatal(err)
	}
	good := writeShardedTrace(t, genTrace(t, "tp", 200))

	sim := NewSimulator()
	sim.SourceOpens, sim.SourceHits = &telemetry.Counter{}, &telemetry.Counter{}
	want := regexp.MustCompile(`^trace: thread 15 batch 3: `)
	for i := 0; i < 2; i++ {
		_, err := sim.Run(context.Background(), Job{TraceFile: bad, Mechanism: config.Baseline})
		if err == nil || !want.MatchString(err.Error()) {
			t.Fatalf("job %d over the corrupt capture: err = %v, want one matching %q", i, err, want)
		}
	}
	if opens := sim.SourceOpens.Value(); opens != 2 {
		t.Fatalf("SourceOpens = %d after two jobs over the corrupt capture, want 2 (a failed decode is not cached)", opens)
	}
	if _, err := sim.Run(context.Background(), Job{TraceFile: good, Mechanism: config.Baseline}); err != nil {
		t.Fatalf("job over an intact capture after the failure: %v", err)
	}
}

// BenchmarkSimulatorCapture is the source layer's benchmark: b.N jobs
// over one small capture (16 threads of 200 records) through one
// Simulator, as a grid runs them, so one op is one job. The first job
// decodes the capture; the rest replay it from the cache.
func BenchmarkSimulatorCapture(b *testing.B) {
	dir := writeShardedTrace(b, genTrace(b, "tp", 200))
	sim := NewSimulator()
	j := Job{TraceFile: dir, Mechanism: config.Baseline}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(context.Background(), j); err != nil {
			b.Fatal(err)
		}
	}
}
