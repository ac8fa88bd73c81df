package sweep

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cmpcache/internal/config"
	"cmpcache/internal/system"
	"cmpcache/internal/trace"
	"cmpcache/internal/workload"
)

// stubRun returns a deterministic fake result derived from the job, so
// orchestrator tests are independent of the simulator.
func stubRun(_ context.Context, j Job) (*system.Results, error) {
	return &system.Results{
		Config: j.Config(),
		Cycles: uint64(1000*j.Outstanding + j.WBHTEntries + j.SnarfEntries),
	}, nil
}

func distinctJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Workload: "tp", Mechanism: config.WBHT, Outstanding: i + 1}
	}
	return jobs
}

func TestResultsInJobOrder(t *testing.T) {
	jobs := distinctJobs(9)
	results := Run(context.Background(), jobs, Options{Workers: 4, Run: stubRun})
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Job != jobs[i] {
			t.Fatalf("result %d is for job %v, want %v", i, r.Job, jobs[i])
		}
		if r.Err != nil || r.Results == nil {
			t.Fatalf("result %d: err=%v results=%v", i, r.Err, r.Results)
		}
		if r.Results.Cycles != uint64(1000*(i+1)) {
			t.Fatalf("result %d carries wrong payload: %d cycles", i, r.Results.Cycles)
		}
	}
}

// TestRunsCarryProfileLabels: the executor receives a context labelled
// with its job's input, mechanism and effective outstanding limit, with
// and without a per-job timeout.
func TestRunsCarryProfileLabels(t *testing.T) {
	jobs := []Job{
		{Workload: "tp", Mechanism: config.Combined, Outstanding: 2},
		{TraceFile: "/captures/g-trade2.cmps", Mechanism: config.Baseline},
	}
	want := [][3]string{{"tp", "combined", "2"}, {"trace:g-trade2.cmps", "base", "6"}}
	for _, timeout := range []time.Duration{0, time.Minute} {
		var mu sync.Mutex
		got := make(map[Job][3]string)
		run := func(ctx context.Context, j Job) (*system.Results, error) {
			var l [3]string
			for i, k := range []string{"input", "mechanism", "outstanding"} {
				l[i], _ = pprof.Label(ctx, k)
			}
			mu.Lock()
			got[j] = l
			mu.Unlock()
			return stubRun(ctx, j)
		}
		Run(context.Background(), jobs, Options{Workers: 2, Run: run, Timeout: timeout})
		for i, j := range jobs {
			if got[j] != want[i] {
				t.Errorf("timeout %v: job %v labels (input, mechanism, outstanding) = %q, want %q", timeout, j, got[j], want[i])
			}
		}
	}
}

func TestIdenticalJobsExecuteOnce(t *testing.T) {
	var executions atomic.Int64
	run := func(ctx context.Context, j Job) (*system.Results, error) {
		executions.Add(1)
		return stubRun(ctx, j)
	}
	j := Job{Workload: "tp", Mechanism: config.Snarf, Outstanding: 6}
	jobs := []Job{j, j, j, {Workload: "tp", Mechanism: config.Baseline, Outstanding: 6}}
	results := Run(context.Background(), jobs, Options{Workers: 4, Run: run})
	if got := executions.Load(); got != 2 {
		t.Fatalf("executed %d distinct jobs, want 2", got)
	}
	cached := 0
	for _, r := range results {
		if r.Err != nil || r.Results == nil {
			t.Fatalf("unexpected failure: %+v", r)
		}
		if r.Cached {
			cached++
		}
	}
	if cached != 2 {
		t.Fatalf("cached = %d results, want 2", cached)
	}
}

// TestFaultIsolation injects a panicking configuration and asserts the
// sweep completes, reports that job as failed and returns every other
// result intact.
func TestFaultIsolation(t *testing.T) {
	jobs := distinctJobs(8)
	poison := 3
	run := func(ctx context.Context, j Job) (*system.Results, error) {
		if j == jobs[poison] {
			panic("injected: engine drained with accesses outstanding")
		}
		return stubRun(ctx, j)
	}
	results := Run(context.Background(), jobs, Options{Workers: 4, Run: run})
	for i, r := range results {
		if i == poison {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "panicked") {
				t.Fatalf("poisoned job error = %v, want recovered panic", r.Err)
			}
			if r.Results != nil {
				t.Fatalf("poisoned job carries results")
			}
			continue
		}
		if r.Err != nil || r.Results == nil {
			t.Fatalf("job %d did not survive the poisoned sweep: %+v", i, r)
		}
	}
}

func TestErrorDoesNotStopSweep(t *testing.T) {
	jobs := distinctJobs(5)
	boom := errors.New("boom")
	run := func(ctx context.Context, j Job) (*system.Results, error) {
		if j.Outstanding == 2 {
			return nil, boom
		}
		return stubRun(ctx, j)
	}
	results := Run(context.Background(), jobs, Options{Workers: 2, Run: run})
	for i, r := range results {
		if jobs[i].Outstanding == 2 {
			if !errors.Is(r.Err, boom) {
				t.Fatalf("want boom, got %v", r.Err)
			}
		} else if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
	}
}

func TestPerJobTimeout(t *testing.T) {
	jobs := distinctJobs(4)
	run := func(ctx context.Context, j Job) (*system.Results, error) {
		if j.Outstanding == 1 {
			select {
			case <-time.After(10 * time.Second):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return stubRun(ctx, j)
	}
	results := Run(context.Background(), jobs, Options{Workers: 4, Run: run, Timeout: 30 * time.Millisecond})
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Fatalf("slow job error = %v, want deadline exceeded", results[0].Err)
	}
	for _, r := range results[1:] {
		if r.Err != nil {
			t.Fatalf("fast job failed: %v", r.Err)
		}
	}
}

func TestProgressReporting(t *testing.T) {
	jobs := distinctJobs(6)
	var events []Progress
	Run(context.Background(), jobs, Options{
		Workers:  3,
		Run:      stubRun,
		Progress: func(p Progress) { events = append(events, p) }, // serialized by the pool
	})
	if len(events) != len(jobs) {
		t.Fatalf("got %d progress events, want %d", len(events), len(jobs))
	}
	for i, p := range events {
		if p.Done != i+1 || p.Total != len(jobs) {
			t.Fatalf("event %d: done=%d total=%d", i, p.Done, p.Total)
		}
	}
	if last := events[len(events)-1]; last.ETA != 0 {
		t.Fatalf("final event ETA = %v, want 0", last.ETA)
	}
}

// TestWorkersRunConcurrently checks the pool's concurrency without a
// clock: in the 4-worker run every job counts itself in flight and
// waits until 4 jobs have been in flight at once, so the run completes
// only if the pool runs 4 jobs together, and no job may ever see more
// than 4. The deadline only ends a pool that never gets there. The
// 1-worker run does not wait, and both runs export byte-identical
// results.
func TestWorkersRunConcurrently(t *testing.T) {
	const workers = 4
	jobs := distinctJobs(12)
	deadline, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var (
		mu       sync.Mutex
		inFlight int
		peak     int
	)
	reached := make(chan struct{})
	run := func(ctx context.Context, j Job) (*system.Results, error) {
		mu.Lock()
		inFlight++
		if inFlight > peak {
			peak = inFlight
			if peak == workers {
				close(reached)
			}
		}
		mu.Unlock()
		defer func() {
			mu.Lock()
			inFlight--
			mu.Unlock()
		}()
		select {
		case <-reached:
			return stubRun(ctx, j)
		case <-deadline.Done():
			return nil, fmt.Errorf("%d jobs never in flight at once", workers)
		}
	}

	serialResults := Run(context.Background(), jobs, Options{Workers: 1, Run: stubRun})
	parallelResults := Run(context.Background(), jobs, Options{Workers: workers, Run: run})
	for i, r := range parallelResults {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	if peak != workers {
		t.Fatalf("%d jobs in flight at once, want at most %d", peak, workers)
	}

	var serialJSON, parallelJSON bytes.Buffer
	if err := WriteJSON(&serialJSON, serialResults); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&parallelJSON, parallelResults); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialJSON.Bytes(), parallelJSON.Bytes()) {
		t.Fatal("parallel export differs from serial export")
	}
}

// TestSimulationDeterministicAcrossWorkers is the end-to-end
// determinism gate on the real simulator: the same plan run with 1 and
// with 8 workers must export byte-identical JSON and CSV.
func TestSimulationDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	plan := Plan{
		Workloads:     []string{"tp", "trade2"},
		Mechanisms:    []config.Mechanism{config.Baseline, config.WBHT},
		Outstanding:   []int{1, 6},
		RefsPerThread: 500,
	}
	jobs := plan.Jobs()

	exports := func(workers int) (string, string) {
		results := Run(context.Background(), jobs, Options{Workers: workers})
		var j, c bytes.Buffer
		if err := WriteJSON(&j, results); err != nil {
			t.Fatal(err)
		}
		if err := WriteCSV(&c, results); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	json1, csv1 := exports(1)
	json8, csv8 := exports(8)
	if json1 != json8 {
		t.Error("JSON export differs between -workers 1 and -workers 8")
	}
	if csv1 != csv8 {
		t.Error("CSV export differs between -workers 1 and -workers 8")
	}
	if !strings.Contains(csv1, "tp,wbht,6,") {
		t.Errorf("CSV export missing expected row prefix:\n%s", csv1)
	}
}

func TestExportExcludesWallClock(t *testing.T) {
	jobs := distinctJobs(2)
	results := Run(context.Background(), jobs, Options{Workers: 1, Run: stubRun})
	var buf bytes.Buffer
	if err := WriteJSON(&buf, results); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"Duration", "Cached"} {
		if strings.Contains(buf.String(), field) {
			t.Fatalf("export leaks scheduling-dependent field %q", field)
		}
	}
}

// TestCSVNamesTraceInputs: a replay job's workload cell names its
// capture, so two captures' rows can be told apart.
func TestCSVNamesTraceInputs(t *testing.T) {
	results := []Result{
		{Job: Job{TraceFile: "captures/tp.cmps", Mechanism: config.Baseline, Outstanding: 6}, Results: &system.Results{}},
		{Job: Job{TraceFile: "captures/t2.cmps", Mechanism: config.Baseline, Outstanding: 6}, Results: &system.Results{}},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var cells []string
	for _, row := range rows[1:] {
		cells = append(cells, row[0])
	}
	if want := []string{"trace:tp.cmps", "trace:t2.cmps"}; !slices.Equal(cells, want) {
		t.Errorf("workload cells %q, want %q", cells, want)
	}
}

// TestCSVRowsTellJobsApart: every grid axis shows in the CSV, so two
// jobs of one mechanism that differ only in a plug-in policy's table
// size, with identical results, still export different rows.
func TestCSVRowsTellJobsApart(t *testing.T) {
	plan := Plan{Workloads: []string{"tp"}, Mechanisms: []config.Mechanism{config.WBHT, config.Snarf,
		config.Combined, config.ReuseDist, config.HybridUI}, TableSizes: []int{512, 4096}}
	var results []Result
	for _, j := range plan.Jobs() {
		results = append(results, Result{Job: j, Results: &system.Results{Cycles: 1000}})
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, row := range rows[1:] {
		line := strings.Join(row, ",")
		if seen[line] {
			t.Errorf("two jobs export the same row %q", line)
		}
		seen[line] = true
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := distinctJobs(4)
	results := Run(ctx, jobs, Options{Workers: 2, Run: stubRun})
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("job %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

func TestJobString(t *testing.T) {
	j := Job{Workload: "trade2", Mechanism: config.WBHT, Outstanding: 6, Knobs: config.Knobs{WBHTEntries: 512, GlobalWBHT: true, LinesPerEntry: 4}}
	s := j.String()
	for _, want := range []string{"trade2/wbht", "out=6", "wbht=512", "global", "coarse=4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Job.String() = %q, missing %q", s, want)
		}
	}
	if strings.Contains(s, "snarf=") {
		t.Fatalf("Job.String() = %q includes defaulted field", s)
	}
}

func TestSimulatorRejectsBadJob(t *testing.T) {
	sim := NewSimulator()
	if _, err := sim.Run(context.Background(), Job{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	bad := Job{Workload: "tp", Mechanism: config.WBHT, Outstanding: 6, Knobs: config.Knobs{WBHTEntries: 1000}}
	if _, err := sim.Run(context.Background(), bad); err == nil {
		t.Fatal("invalid table geometry accepted")
	}
}

// TestSimulatorBoundsSyntheticSources requests more synthetic lengths
// than the source cache keeps: the cache stays within its bound, a
// repeated length is served without regenerating its source, and the
// least recently used length is the one dropped.
func TestSimulatorBoundsSyntheticSources(t *testing.T) {
	if maxSyntheticSources < len(workload.Names()) {
		t.Fatalf("bound %d cannot hold one source per built-in workload (%d)",
			maxSyntheticSources, len(workload.Names()))
	}
	sim := NewSimulator()
	get := func(refs int) trace.Source {
		t.Helper()
		src, err := sim.source(context.Background(), Job{Workload: "tp", RefsPerThread: refs})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(sim.sources); n > maxSyntheticSources {
			t.Fatalf("cache holds %d sources, bound %d", n, maxSyntheticSources)
		}
		return src
	}
	const first = 100
	srcs := make([]trace.Source, maxSyntheticSources)
	for i := range srcs {
		srcs[i] = get(first + i)
	}
	if get(first) != srcs[0] { // now the most recently used
		t.Fatal("cached length regenerated")
	}
	latest := get(first + maxSyntheticSources) // drops first+1
	if get(first+maxSyntheticSources) != latest {
		t.Fatal("latest length regenerated")
	}
	if get(first) != srcs[0] {
		t.Fatal("recently used length dropped")
	}
	if get(first+1) == srcs[1] {
		t.Fatal("least recently used length still cached")
	}

	// Concurrent callers cycling through twice the bound (run under
	// -race) leave the cache within it too.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2*maxSyntheticSources; i++ {
				refs := first + (g+i)%(2*maxSyntheticSources)
				if _, err := sim.source(context.Background(), Job{Workload: "tp", RefsPerThread: refs}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if n := len(sim.sources); n > maxSyntheticSources {
		t.Fatalf("cache holds %d sources after concurrent use, bound %d", n, maxSyntheticSources)
	}
}

func ExampleRun() {
	jobs := Plan{
		Workloads:   []string{"tp"},
		Mechanisms:  []config.Mechanism{config.Baseline, config.WBHT},
		Outstanding: []int{6},
	}.Jobs()
	results := Run(context.Background(), jobs, Options{Workers: 2, Run: stubRun})
	for _, r := range results {
		fmt.Printf("%s: %d cycles\n", r.Job, r.Results.Cycles)
	}
	// Output:
	// tp/base out=6: 6000 cycles
	// tp/wbht out=6: 6000 cycles
}
