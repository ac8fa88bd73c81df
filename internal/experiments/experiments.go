// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) on the simulator, printing paper-reported
// values alongside measured ones. A Runner caches results by sweep.Job,
// so the baseline runs that several experiments share execute once.
//
// Each artifact first assembles the full set of jobs it needs, then
// dispatches the uncached ones through the internal/sweep worker pool,
// so independent simulation runs execute concurrently (Options.Workers;
// default GOMAXPROCS) while rendering, which only reads the cache, stays
// fully deterministic.
//
// Absolute magnitudes differ from the paper by construction — the
// original traces are proprietary captures billions of references long,
// ours are synthetic and ~10^3 times shorter — so each artifact is
// judged on shape: orderings across workloads, signs of improvements,
// where curves rise with memory pressure, and where they saturate.
package experiments

import (
	"context"
	"fmt"
	"io"

	"cmpcache/internal/config"
	"cmpcache/internal/sweep"
	"cmpcache/internal/system"
)

// Workloads in the paper's presentation order.
var Workloads = []string{"cpw2", "notesbench", "tp", "trade2"}

// Outstanding-miss sweep of Figures 2, 3, 5 and 7.
var OutstandingSweep = []int{1, 2, 3, 4, 5, 6}

// Table-size sweep of Figures 4 and 6 (entries).
var TableSizeSweep = []int{512, 1024, 2048, 4096, 8192, 16384, 32768, 65536}

// Options controls experiment scale and output format.
type Options struct {
	// RefsPerThread overrides the workload length (0 = profile default).
	RefsPerThread int
	// Quick trims sweeps (outstanding {1,2,4,6}, sizes {512,2K,8K,32K})
	// for a fast end-to-end pass.
	Quick bool
	// CSV selects CSV output instead of markdown.
	CSV bool
	// Workers bounds concurrent simulation runs (0 = GOMAXPROCS). The
	// rendered artifacts are byte-identical at any worker count.
	Workers int
	// Overrides are policy knobs laid over every job the experiments
	// dispatch (config.Knobs.Over), explicit zeros included: a knob
	// zeroed on the command line fails config.Validate instead of
	// silently reverting to its default.
	Overrides config.Knobs
}

func (o Options) outstanding() []int {
	if o.Quick {
		return []int{1, 2, 4, 6}
	}
	return OutstandingSweep
}

func (o Options) tableSizes() []int {
	if o.Quick {
		return []int{512, 2048, 8192, 32768}
	}
	return TableSizeSweep
}

// Runner executes and caches simulation runs for the experiment set.
// Fresh runs are dispatched through the internal/sweep pool.
type Runner struct {
	opts  Options
	sim   *sweep.Simulator
	cache map[sweep.Job]*system.Results
	// Progress, when non-nil, receives a line per fresh simulation run.
	// It may be invoked from pool goroutines, but never concurrently.
	Progress func(string)
}

// NewRunner returns a Runner with an empty cache.
func NewRunner(opts Options) *Runner {
	return &Runner{
		opts:  opts,
		sim:   sweep.NewSimulator(),
		cache: make(map[sweep.Job]*system.Results),
	}
}

// sized sets the runner's workload length on j: every job the runner
// caches or looks up goes through it.
func (r *Runner) sized(j sweep.Job) sweep.Job {
	j.RefsPerThread = r.opts.RefsPerThread
	return j
}

// prefetch executes every uncached job on the sweep pool and fills the
// cache. Artifacts call it with their complete job set before
// rendering, so independent runs proceed concurrently while table
// rendering stays strictly ordered.
func (r *Runner) prefetch(jobs []sweep.Job) error {
	var fresh []sweep.Job
	seen := make(map[sweep.Job]bool, len(jobs))
	for _, j := range jobs {
		j = r.sized(j)
		if _, ok := r.cache[j]; ok || seen[j] {
			continue
		}
		seen[j] = true
		fresh = append(fresh, j)
	}
	if len(fresh) == 0 {
		return nil
	}
	opts := sweep.Options{Workers: r.opts.Workers, Run: r.sim.Run}
	if r.Progress != nil {
		opts.Progress = func(p sweep.Progress) {
			if p.Err != nil || p.Cached {
				return
			}
			r.Progress(fmt.Sprintf("run %s mech=%s out=%d wbht=%d snarf=%d [%d/%d]",
				p.Job.Workload, p.Job.Mechanism, p.Job.Outstanding,
				p.Job.WBHTEntries, p.Job.SnarfEntries, p.Done, p.Total))
		}
	}
	// The overrides rewrite a copy: the cache stays keyed by the jobs
	// the artifacts name.
	jobs = make([]sweep.Job, len(fresh))
	for i, j := range fresh {
		j.Knobs = r.opts.Overrides.Over(j.Knobs)
		jobs[i] = j
	}
	for i, res := range sweep.Run(context.Background(), jobs, opts) {
		if res.Err != nil {
			return fmt.Errorf("experiments: %w", res.Err)
		}
		r.cache[fresh[i]] = res.Results
	}
	return nil
}

// result recalls a prefetched run.
func (r *Runner) result(j sweep.Job) *system.Results {
	return r.cache[r.sized(j)]
}

// base recalls the prefetched baseline run for a workload at an
// outstanding level.
func (r *Runner) base(workload string, outstanding int) *system.Results {
	return r.result(baseJob(workload, outstanding))
}

// baseJob is the baseline configuration every improvement figure
// compares against.
func baseJob(workload string, outstanding int) sweep.Job {
	return sweep.Job{Workload: workload, Mechanism: config.Baseline, Outstanding: outstanding}
}

// artifacts pairs each experiment Run accepts with its renderer, in
// presentation order.
var artifacts = []struct {
	name   string
	render func(*Runner, io.Writer) error
}{
	{"summary", (*Runner).SummaryTable},
	{"table1", (*Runner).Table1},
	{"table2", (*Runner).Table2},
	{"table3", (*Runner).Table3},
	{"table4", (*Runner).Table4},
	{"table5", (*Runner).Table5},
	{"fig2", (*Runner).Figure2},
	{"fig3", (*Runner).Figure3},
	{"fig4", (*Runner).Figure4},
	{"fig5", (*Runner).Figure5},
	{"fig6", (*Runner).Figure6},
	{"fig7", (*Runner).Figure7},
	{"ablation", (*Runner).Ablations},
	{"policies", (*Runner).Policies},
}

// Experiment names accepted by Run, in presentation order.
var Names = func() []string {
	names := make([]string, len(artifacts))
	for i, a := range artifacts {
		names[i] = a.name
	}
	return names
}()

// Run executes one named experiment (or "all") and writes its artifact
// to w.
func (r *Runner) Run(name string, w io.Writer) error {
	if name == "all" {
		for _, a := range artifacts {
			if err := a.render(r, w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	for _, a := range artifacts {
		if a.name == name {
			return a.render(r, w)
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q (want %v or all)", name, Names)
}
