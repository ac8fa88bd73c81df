// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) on the simulator, printing paper-reported
// values alongside measured ones. Results are cached per configuration
// within a Runner, so the baseline runs that several experiments share
// execute once.
//
// Each artifact first assembles the full set of configurations it
// needs, then dispatches the uncached ones through the internal/sweep
// worker pool, so independent simulation runs execute concurrently
// (Options.Workers; default GOMAXPROCS) while rendering stays fully
// deterministic.
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
	// Overrides, when non-nil, applies the shared command-line policy
	// knob overrides (config.RegisterOverrides) to every simulation the
	// experiments dispatch, including explicit zeros — a knob zeroed on
	// the command line fails config.Validate instead of silently
	// reverting to its default.
	Overrides *config.Overrides
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

// runKey identifies a unique simulation configuration.
type runKey struct {
	workload     string
	mech         config.Mechanism
	outstanding  int
	wbhtEntries  int
	snarfEntries int
	global       bool
	noSwitch     bool
	snarfLRU     bool
	invalidOnly  bool
	coarse       int  // WBHT LinesPerEntry override (0 = 1)
	historyRepl  bool // WBHT-informed L2 replacement (Section 7)
}

// Runner executes and caches simulation runs for the experiment set.
// Fresh runs are dispatched through the internal/sweep pool.
type Runner struct {
	opts  Options
	sim   *sweep.Simulator
	cache map[runKey]*system.Results
	// Progress, when non-nil, receives a line per fresh simulation run.
	// It may be invoked from pool goroutines, but never concurrently.
	Progress func(string)
}

// NewRunner returns a Runner with an empty cache.
func NewRunner(opts Options) *Runner {
	return &Runner{
		opts:  opts,
		sim:   sweep.NewSimulator(),
		cache: make(map[runKey]*system.Results),
	}
}

// jobFor translates a run key into its sweep job.
func (r *Runner) jobFor(k runKey) sweep.Job {
	return sweep.Job{
		Workload:      k.workload,
		Mechanism:     k.mech,
		Outstanding:   k.outstanding,
		WBHTEntries:   k.wbhtEntries,
		SnarfEntries:  k.snarfEntries,
		GlobalWBHT:    k.global,
		NoSwitch:      k.noSwitch,
		SnarfLRU:      k.snarfLRU,
		InvalidOnly:   k.invalidOnly,
		LinesPerEntry: k.coarse,
		HistoryRepl:   k.historyRepl,
		RefsPerThread: r.opts.RefsPerThread,
	}
}

// configFor materializes the simulated configuration for a key — the
// exact configuration the sweep executor runs.
func (r *Runner) configFor(k runKey) config.Config {
	return r.jobFor(k).Config()
}

// prefetch executes every uncached key on the sweep pool and fills the
// cache. Artifacts call it with their complete key set before
// rendering, so independent runs proceed concurrently while table
// rendering stays strictly ordered.
func (r *Runner) prefetch(keys []runKey) error {
	var jobs []sweep.Job
	var fresh []runKey
	seen := make(map[runKey]bool, len(keys))
	for _, k := range keys {
		if _, ok := r.cache[k]; ok || seen[k] {
			continue
		}
		seen[k] = true
		fresh = append(fresh, k)
		jobs = append(jobs, r.jobFor(k))
	}
	if len(jobs) == 0 {
		return nil
	}
	jobs = sweep.OverrideJobs(jobs, r.opts.Overrides)
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
	results := sweep.Run(context.Background(), jobs, opts)
	for i, res := range results {
		if res.Err != nil {
			return fmt.Errorf("experiments: %w", res.Err)
		}
		r.cache[fresh[i]] = res.Results
	}
	return nil
}

// result runs (or recalls) one simulation.
func (r *Runner) result(k runKey) (*system.Results, error) {
	if res, ok := r.cache[k]; ok {
		return res, nil
	}
	if err := r.prefetch([]runKey{k}); err != nil {
		return nil, err
	}
	return r.cache[k], nil
}

// base returns the baseline run for a workload at an outstanding level.
func (r *Runner) base(workload string, outstanding int) (*system.Results, error) {
	return r.result(runKey{workload: workload, mech: config.Baseline, outstanding: outstanding})
}

// Experiment names accepted by Run, in presentation order.
var Names = []string{
	"summary",
	"table1", "table2", "table3", "table4", "table5",
	"fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
	"ablation",
	"policies",
}

// Run executes one named experiment (or "all") and writes its artifact
// to w.
func (r *Runner) Run(name string, w io.Writer) error {
	switch name {
	case "summary":
		return r.SummaryTable(w)
	case "table1":
		return r.Table1(w)
	case "table2":
		return r.Table2(w)
	case "table3":
		return r.Table3(w)
	case "table4":
		return r.Table4(w)
	case "table5":
		return r.Table5(w)
	case "fig2":
		return r.Figure2(w)
	case "fig3":
		return r.Figure3(w)
	case "fig4":
		return r.Figure4(w)
	case "fig5":
		return r.Figure5(w)
	case "fig6":
		return r.Figure6(w)
	case "fig7":
		return r.Figure7(w)
	case "ablation":
		return r.Ablations(w)
	case "policies":
		return r.Policies(w)
	case "all":
		for _, n := range Names {
			if err := r.Run(n, w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	default:
		return fmt.Errorf("experiments: unknown experiment %q (want %v or all)", name, Names)
	}
}
