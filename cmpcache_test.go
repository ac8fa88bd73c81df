package cmpcache_test

import (
	"errors"
	"strings"
	"testing"

	"cmpcache"
	"cmpcache/internal/trace"
)

// memSource splits tr into a source every run of a test can replay.
func memSource(tb testing.TB, tr *cmpcache.Trace) cmpcache.TraceSource {
	tb.Helper()
	src, err := cmpcache.NewMemSource(tr)
	if err != nil {
		tb.Fatal(err)
	}
	return src
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := cmpcache.DefaultConfig()
	if cfg.L2HitLatency() != 20 || cfg.L2ToL2Latency() != 77 ||
		cfg.L3HitLatency() != 167 || cfg.MemLatency() != 431 {
		t.Fatalf("Table 3 latencies broken: %d/%d/%d/%d",
			cfg.L2HitLatency(), cfg.L2ToL2Latency(), cfg.L3HitLatency(), cfg.MemLatency())
	}
	if cfg.Mechanism != cmpcache.Baseline {
		t.Fatal("default mechanism should be baseline")
	}
}

func TestWorkloadsListed(t *testing.T) {
	names := cmpcache.Workloads()
	if len(names) != 4 {
		t.Fatalf("Workloads = %v, want the paper's four", names)
	}
	for _, n := range names {
		if _, err := cmpcache.WorkloadByName(n); err != nil {
			t.Fatalf("WorkloadByName(%q): %v", n, err)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	tr, err := cmpcache.GenerateWorkloadSized("trade2", 500)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cmpcache.Run(cmpcache.DefaultConfig(), memSource(t, tr), cmpcache.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.RefsCompleted != uint64(len(tr.Records)) {
		t.Fatalf("degenerate run: %d cycles, %d/%d refs",
			res.Cycles, res.RefsCompleted, len(tr.Records))
	}
	if !strings.Contains(res.Summary(), "execution time") {
		t.Fatal("Summary missing expected content")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	tr, err := cmpcache.GenerateWorkloadSized("tp", 100)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cmpcache.DefaultConfig()
	cfg.MaxOutstanding = 0
	if _, err := cmpcache.Run(cfg, memSource(t, tr), cmpcache.RunOptions{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// failingSource fails one thread's stream after its first chunk.
type failingSource struct {
	cmpcache.TraceSource
	thread int
}

func (s failingSource) Stream(tid int) trace.Stream {
	if tid != s.thread {
		return s.TraceSource.Stream(tid)
	}
	return &failAfterFirst{Stream: s.TraceSource.Stream(tid)}
}

var errBrokenStream = errors.New("broken stream")

// failAfterFirst serves its stream's first chunk, then fails.
type failAfterFirst struct {
	trace.Stream
	served bool
}

func (f *failAfterFirst) NextChunk() ([]trace.Record, error) {
	if f.served {
		return nil, errBrokenStream
	}
	f.served = true
	return f.Stream.NextChunk()
}

// TestRunReturnsMidRunStreamError: a trace stream failing mid-run ends
// Run with an error, not a panic, and the error names the chip thread —
// thread 13, the second thread of the fourth L2 slice.
func TestRunReturnsMidRunStreamError(t *testing.T) {
	tr, err := cmpcache.GenerateWorkloadSized("tp", 200)
	if err != nil {
		t.Fatal(err)
	}
	src := failingSource{TraceSource: memSource(t, tr), thread: 13}
	_, err = cmpcache.Run(cmpcache.DefaultConfig(), src, cmpcache.RunOptions{})
	if !errors.Is(err, errBrokenStream) || !strings.Contains(err.Error(), "thread 13 stream") {
		t.Fatalf("Run = %v, want the stream error naming thread 13", err)
	}
}

func TestMechanismsAllRun(t *testing.T) {
	tr, err := cmpcache.GenerateWorkloadSized("cpw2", 500)
	if err != nil {
		t.Fatal(err)
	}
	src := memSource(t, tr)
	base, err := cmpcache.Run(cmpcache.DefaultConfig(), src, cmpcache.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []cmpcache.Mechanism{cmpcache.WBHT, cmpcache.Snarf, cmpcache.Combined} {
		res, err := cmpcache.Run(cmpcache.DefaultConfig().WithMechanism(m), src, cmpcache.RunOptions{})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.RefsCompleted != base.RefsCompleted {
			t.Fatalf("%v completed %d refs, baseline %d",
				m, res.RefsCompleted, base.RefsCompleted)
		}
	}
}

func TestGenerateWorkloadUnknown(t *testing.T) {
	if _, err := cmpcache.GenerateWorkload("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestDeterministicRuns(t *testing.T) {
	tr, err := cmpcache.GenerateWorkloadSized("notesbench", 400)
	if err != nil {
		t.Fatal(err)
	}
	src := memSource(t, tr)
	a, err := cmpcache.Run(cmpcache.DefaultConfig(), src, cmpcache.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cmpcache.Run(cmpcache.DefaultConfig(), src, cmpcache.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.WBRequests != b.WBRequests {
		t.Fatal("identical inputs produced different results")
	}
}
