package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cmpcache/internal/config"
	"cmpcache/internal/sweep"
	"cmpcache/internal/system"
)

// workload is one benchmark input set.
type workload struct {
	name, why string
	prepare   func(r *runner) (*plan, error)
}

// plan is a prepared workload: its inputs exist and it can be timed.
type plan struct {
	// setup starts the program once on tiny inputs with the workload's
	// flags and returns the time that took: the program's fixed cost.
	setup  func() (time.Duration, error)
	setups int
	// rep runs one repetition into p, with the program's CPU profile and
	// spans attached when traced.
	rep func(p *pass, traced bool) error
	// inproc are the jobs the traced run also runs in process, calling
	// the layers directly.
	inproc []inprocJob
}

// The workloads differ in what dominates host time: the event loop and
// cache models on a long replay (sim_*), per-job fixed costs on a grid of
// short jobs (sweep_grid), and HTTP, queueing and the result cache in
// the daemon (serve_mixed). sim_trade2_base bypasses the write-back
// policy hooks that sim_tp_combined keeps busy, so a policy-layer change
// must leave it unmoved.
var workloads = []workload{
	{"sim_trade2_base", "cmpsim replays of a Trade2 capture: L3-resident reuse keeps the event loop and L2/L3/ring models busy, policy hooks idle",
		simPlan("trade2", "base")},
	{"sim_tp_combined", "cmpsim replays of a TP capture with combined mechanisms: 3x-L3 working set, retry storm, WBHT and snarf busy",
		simPlan("tp", "combined")},
	{"sweep_grid", "cmpsweep grids of 64 short jobs over four captures: capture open, model build, result encoding and the pool dominate",
		sweepPlan},
	{"serve_mixed", "cmpserved under 2 closed-loop clients: 200 cold jobs (queue, simulate, cache write) and 1000 warm cache reads",
		servePlan},
}

const (
	replayRefs = 60000 // references per thread in a sim_* replay
	auditRefs  = 2000  // references per thread in the audited capture
	gridRefs   = 8000  // references per thread in each sweep_grid capture
	setupRefs  = 1     // references per thread in set-up captures
	cmpsimOut  = 6     // cmpsim's default outstanding misses
	gridOut    = "1,2,4,6"
	gridJobs   = 4 * 4 * 4 // captures x paper mechanisms x outstanding
	setupSims  = 20
	setupGrids = 10
)

// apps are the four commercial workloads of the paper.
var apps = []string{"tp", "cpw2", "notesbench", "trade2"}

func simPlan(app, mech string) func(*runner) (*plan, error) {
	return func(r *runner) (*plan, error) {
		var m config.Mechanism
		if err := m.UnmarshalText([]byte(mech)); err != nil {
			return nil, err
		}
		replay, err := r.capture(app, replayRefs, "replay")
		if err != nil {
			return nil, err
		}
		audit, err := r.capture(app, auditRefs, "audit")
		if err != nil {
			return nil, err
		}
		tiny, err := r.capture(app, setupRefs, "setup")
		if err != nil {
			return nil, err
		}
		cmpsim := r.tool("cmpsim")
		r.attempt()
		if _, err := runProc(r.ctx, cmpsim, "-trace", audit.path, "-mechanism", mech, "-audit"); err != nil {
			r.fail("audit: %v", err)
		}
		job := sweep.Job{TraceFile: replay.path, Mechanism: m, Outstanding: cmpsimOut}
		return &plan{
			setups: setupSims,
			setup: func() (time.Duration, error) {
				pr, err := runProc(r.ctx, cmpsim, "-trace", tiny.path, "-mechanism", mech, "-json")
				return pr.wall, err
			},
			rep: func(p *pass, traced bool) error {
				args := []string{"-trace", replay.path, "-mechanism", mech, "-json"}
				if traced {
					args = append(args, "-cpuprofile", r.profilePath("cmpsim"))
				}
				r.attempt()
				spans := r.tracer(traced)
				sp := spans.begin(r.nextOp("replay"), 0, "cmpsim.replay")
				pr, err := runProc(r.ctx, cmpsim, args...)
				spans.end(sp, replay.records)
				if err != nil {
					r.fail("%v", err)
					return nil
				}
				res, ok := r.result(jobKey(job), pr.out, replay.records)
				if !ok {
					return nil
				}
				r.record(p, res.Cycles, []*system.Results{res})
				p.add(pr, pr.wall, float64(res.RefsCompleted), 1, ms(pr.wall))
				return nil
			},
			inproc: []inprocJob{{job, replay.records}},
		}, nil
	}
}

func sweepPlan(r *runner) (*plan, error) {
	var grid, tiny []string
	records := make(map[string]int64)
	for _, app := range apps {
		c, err := r.capture(app, gridRefs, "grid")
		if err != nil {
			return nil, err
		}
		t, err := r.capture(app, setupRefs, "setup")
		if err != nil {
			return nil, err
		}
		grid, tiny = append(grid, c.path), append(tiny, t.path)
		records[c.path] = c.records
	}
	cmpsweep := r.tool("cmpsweep")
	args := func(traces []string) []string {
		return []string{"-traces", strings.Join(traces, ","), "-mechanisms", "paper",
			"-outstanding", gridOut, "-json", "-"}
	}
	// The in-process jobs are grid jobs, so their results must match the
	// grid's bytes.
	var inproc []inprocJob
	for _, path := range grid {
		for _, m := range []config.Mechanism{config.Baseline, config.Combined} {
			inproc = append(inproc, inprocJob{sweep.Job{TraceFile: path, Mechanism: m, Outstanding: 6}, records[path]})
		}
	}
	return &plan{
		setups: setupGrids,
		setup: func() (time.Duration, error) {
			pr, err := runProc(r.ctx, cmpsweep, args(tiny)...)
			return pr.wall, err
		},
		rep: func(p *pass, traced bool) error {
			a := args(grid)
			var telemetry string
			if traced {
				telemetry = filepath.Join(r.out, fmt.Sprintf("cmpsweep-%d.prom", len(r.profiles)))
				a = append(a, "-cpuprofile", r.profilePath("cmpsweep"), "-telemetry-out", telemetry)
			}
			r.attempt()
			spans := r.tracer(traced)
			sp := spans.begin(r.nextOp("grid"), 0, "cmpsweep.grid")
			pr, err := runProc(r.ctx, cmpsweep, a...)
			spans.end(sp, 0)
			if err != nil {
				r.fail("%v", err)
				return nil
			}
			if traced {
				text, err := os.ReadFile(telemetry)
				if err != nil {
					return err
				}
				r.counters = string(text)
			}
			var rows []struct {
				Job     sweep.Job
				Err     string
				Results json.RawMessage
			}
			if err := json.Unmarshal(pr.out, &rows); err != nil {
				r.fail("cmpsweep output: %v", err)
				return nil
			}
			if len(rows) != gridJobs {
				r.fail("cmpsweep returned %d rows, want %d", len(rows), gridJobs)
				return nil
			}
			var cycles uint64
			var refs float64
			var results []*system.Results
			for _, row := range rows {
				if row.Err != "" {
					r.fail("cmpsweep job %s: %s", jobKey(row.Job), row.Err)
					return nil
				}
				res, ok := r.result(jobKey(row.Job), row.Results, records[row.Job.TraceFile])
				if !ok {
					return nil
				}
				cycles += res.Cycles
				refs += float64(res.RefsCompleted)
				results = append(results, res)
			}
			r.record(p, cycles, results)
			p.add(pr, pr.wall, refs, gridJobs, ms(pr.wall))
			return nil
		},
		inproc: inproc,
	}, nil
}

// add appends one repetition: the program run, the wall time of its
// measured work, the references it simulated, the jobs or operations it
// completed and their latencies.
func (p *pass) add(pr procRun, wall time.Duration, refs float64, jobs int, lat ...float64) {
	p.wall = append(p.wall, wall.Seconds())
	p.life = append(p.life, pr.wall.Seconds())
	p.refs = append(p.refs, refs)
	p.jobs = append(p.jobs, float64(jobs))
	p.rss = append(p.rss, pr.rssMB)
	p.cpu = append(p.cpu, pr.cpu.Seconds())
	p.lat = append(p.lat, lat...)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// result checks one job's result bytes and decodes them.
func (r *runner) result(key string, raw []byte, records int64) (*system.Results, bool) {
	if err := r.same(key, raw); err != nil {
		r.fail("%v", err)
		return nil, false
	}
	var res system.Results
	if err := json.Unmarshal(raw, &res); err != nil {
		r.fail("%s: %v", key, err)
		return nil, false
	}
	if err := checkResults(&res, records); err != nil {
		r.fail("%s: %v", key, err)
		return nil, false
	}
	return &res, true
}

// profilePath names the next CPU profile file and remembers it.
func (r *runner) profilePath(program string) string {
	path := filepath.Join(r.out, fmt.Sprintf("%s-%d.pprof", program, len(r.profiles)))
	r.profiles = append(r.profiles, path)
	return path
}

// tracer returns the span log for a traced pass and nil, which records
// nothing, for a plain one.
func (r *runner) tracer(traced bool) *spanLog {
	if traced {
		return r.spans
	}
	return nil
}

// nextOp returns a fresh operation ID for spans.
func (r *runner) nextOp(kind string) string {
	r.ops++
	return fmt.Sprintf("%s-%d", kind, r.ops)
}
