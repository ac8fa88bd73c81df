package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cmpcache/internal/sweep"
	"cmpcache/internal/system"
	"cmpcache/internal/trace"
)

// tools are the programs the benchmark builds from the tree and drives.
var tools = []string{"tracegen", "cmpsim", "cmpsweep", "cmpserved"}

// buildTools builds the programs into bin before any timing starts.
func buildTools(ctx context.Context, root, bin string) error {
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, t := range tools {
		args = append(args, "./cmd/"+t)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building %s: %w", strings.Join(tools, ", "), err)
	}
	return nil
}

// runner holds one workload run's inputs, working files and findings.
type runner struct {
	ctx  context.Context
	bin  string // built programs
	work string // working directory for inputs, removed when the run ends
	out  string // traced artifacts (profiles, spans), kept
	seed uint64

	attempted, failed int
	ops               int         // operations begun, for span IDs
	spans             *spanLog    // nil in the untraced run
	cal               *calibrator // nil in the traced run
	profiles          []string
	counters          string // Prometheus text scraped from the program
	digests           map[string][32]byte
}

func (r *runner) tool(name string) string { return filepath.Join(r.bin, name) }

// attempt counts one operation the run made.
func (r *runner) attempt() { r.attempted++ }

// fail counts one failed operation and reports why.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "benchmark: FAIL: "+format+"\n", args...)
}

// same checks that every result recorded under key has identical bytes:
// repetitions of one job, a warm answer and its cold run, and an
// in-process run and the program's run all share a key. JSON is
// compacted first so indentation does not count.
func (r *runner) same(key string, result []byte) error {
	var buf bytes.Buffer
	if err := json.Compact(&buf, result); err != nil {
		return fmt.Errorf("%s: result is not JSON: %v", key, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if prev, ok := r.digests[key]; ok && prev != sum {
		return fmt.Errorf("%s: result bytes differ from an earlier run of the same job", key)
	}
	r.digests[key] = sum
	return nil
}

// jobKey identifies a simulation job for the same() check.
func jobKey(j sweep.Job) string {
	return fmt.Sprintf("%s/%s/out%d", filepath.Base(j.TraceFile), j.Mechanism, j.Config().MaxOutstanding)
}

// capture is a generated sharded trace.
type capture struct {
	path    string
	records int64
}

// capture generates a sharded capture of app at refs references per
// thread. Its seed derives from the run's seed and tag alone, so the
// same -seed always yields the same inputs.
func (r *runner) capture(app string, refs int, tag string) (capture, error) {
	path := filepath.Join(r.work, fmt.Sprintf("%s-%s.cmps", app, tag))
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s", r.seed, app, tag)
	seed := fmt.Sprint(h.Sum64())
	if _, err := runProc(r.ctx, r.tool("tracegen"), "-workload", app, "-refs", fmt.Sprint(refs),
		"-seed", seed, "-shards", "4", "-o", path); err != nil {
		return capture{}, err
	}
	man, err := trace.ReadManifest(path)
	if err != nil {
		return capture{}, err
	}
	return capture{path: path, records: man.Records}, nil
}

// procRun is one finished program run.
type procRun struct {
	wall  time.Duration
	out   []byte
	rssMB float64 // peak resident set size
	cpu   time.Duration
}

// runProc runs a program to completion, capturing its standard output.
// A non-zero exit is an error carrying the tail of its standard error.
func runProc(ctx context.Context, bin string, args ...string) (procRun, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if len(msg) > 400 {
			msg = "..." + msg[len(msg)-400:]
		}
		return procRun{}, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, msg)
	}
	rss, cpu := usage(cmd.ProcessState)
	return procRun{wall: wall, out: stdout.Bytes(), rssMB: rss, cpu: cpu}, nil
}

// ownPeakRSS reads the benchmark's own peak RSS (MB). A program started
// from the benchmark begins life sharing the benchmark's memory, so
// rusage reports the program's peak RSS as at least the benchmark's
// peak at that time: a program's reading is its own only while it
// stays above this.
func ownPeakRSS() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM in /proc/self/status: %v", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// usage reads a finished process's peak RSS (MB) and CPU time.
func usage(ps *os.ProcessState) (float64, time.Duration) {
	var rss float64
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return rss, ps.UserTime() + ps.SystemTime()
}

// pass collects the repetitions of one measuring pass. A repetition is
// the workload's unit of work: a replay, a grid, or a daemon session.
type pass struct {
	wall   []float64 // seconds of measured work per repetition
	life   []float64 // seconds the program process lived per repetition
	refs   []float64 // simulated references per repetition
	jobs   []float64 // completed jobs or operations per repetition
	rss    []float64 // program peak RSS per repetition, MB
	cpu    []float64 // program CPU seconds per repetition
	lat    []float64 // latency of every operation, ms
	cold   []float64 // serve_mixed cold operation latencies, ms
	warm   []float64 // serve_mixed warm operation latencies, ms
	cycles uint64    // simulated cycles of one repetition
	model  []*system.Results
}

// record keeps one repetition's simulated outcome. Every repetition
// simulates the same jobs, so the summed cycles must repeat exactly.
func (r *runner) record(p *pass, cycles uint64, results []*system.Results) {
	if p.model != nil && cycles != p.cycles {
		r.fail("repetition simulated %d cycles, an earlier one %d", cycles, p.cycles)
	}
	p.cycles, p.model = cycles, results
}

// repeat runs rep until the budget is spent, at least once. It does not
// start a repetition that the previous one's length says would overrun.
// With a calibrator, the host's speed is measured before every
// repetition and after the last, within the budget.
func (r *runner) repeat(p *pass, budget time.Duration, traced bool, rep func(*pass, bool) error) error {
	start := time.Now()
	var last, work time.Duration
	for n := 0; n == 0 || time.Since(start)+last <= budget; n++ {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		t := time.Now()
		if r.cal != nil {
			if err := r.cal.measureAfter(r.ctx, work); err != nil {
				return err
			}
		}
		w := time.Now()
		if err := rep(p, traced); err != nil {
			return err
		}
		last, work = time.Since(t), time.Since(w)
	}
	if r.cal != nil {
		return r.cal.measureAfter(r.ctx, work)
	}
	return nil
}

// endToEnd computes the end-to-end metrics of an untraced pass. Host
// times are divided by the host's slowdown, so they read as if measured
// on the host the recorded numbers come from; host_slowdown reports it.
func (p *pass) endToEnd(setup []float64, slowdown float64) map[string]float64 {
	rate := func(num []float64) float64 {
		rs := make([]float64, len(num))
		for i := range num {
			rs[i] = num[i] / p.wall[i]
		}
		return median(rs) * slowdown
	}
	m := map[string]float64{
		"refs_per_s":    rate(p.refs),
		"jobs_per_s":    rate(p.jobs),
		"op_ms_p50":     median(p.lat) / slowdown,
		"sim_cycles":    float64(p.cycles),
		"setup_s":       median(setup) / slowdown,
		"peak_rss_mb":   median(p.rss),
		"host_slowdown": slowdown,
	}
	if len(p.cold) > 0 {
		m["cold_ms_p50"] = median(p.cold) / slowdown
		m["cold_ms_p95"] = percentile(p.cold, 95) / slowdown
		m["warm_ms_p50"] = median(p.warm) / slowdown
		m["warm_ms_p99"] = percentile(p.warm, 99) / slowdown
	}
	return m
}
