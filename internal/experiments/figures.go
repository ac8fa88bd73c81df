package experiments

import (
	"fmt"
	"io"

	"cmpcache/internal/config"
	"cmpcache/internal/stats"
	"cmpcache/internal/sweep"
	"cmpcache/internal/workload"
)

// sweepImprovement renders one pressure-sweep figure: percentage runtime
// improvement over the baseline at each outstanding-miss level. All
// grid points are prefetched through the sweep pool before rendering.
func (r *Runner) sweepImprovement(w io.Writer, title string, variant func(string, int) sweep.Job) error {
	var jobs []sweep.Job
	for _, name := range Workloads {
		for _, o := range r.opts.outstanding() {
			jobs = append(jobs, baseJob(name, o), variant(name, o))
		}
	}
	if err := r.prefetch(jobs); err != nil {
		return err
	}
	headers := []string{"Workload"}
	for _, o := range r.opts.outstanding() {
		headers = append(headers, fmt.Sprintf("out=%d", o))
	}
	headers = append(headers, "trend")
	t := stats.NewTable(title, headers...)
	for _, name := range Workloads {
		cells := []string{workload.PaperName(name)}
		var series []float64
		for _, o := range r.opts.outstanding() {
			imp := stats.Improvement(r.base(name, o).Cycles, r.result(variant(name, o)).Cycles)
			series = append(series, imp)
			cells = append(cells, fmt.Sprintf("%+.2f%%", imp))
		}
		cells = append(cells, stats.Sparkline(series))
		t.AddRow(cells...)
	}
	return r.render(w, t)
}

// Figure2 reproduces "Runtime Improvement Over Baseline of Write Back
// History Table": improvement grows with memory pressure; NotesBench
// stays flat (retry switch dormant); TP dips negative at low pressure.
func (r *Runner) Figure2(w io.Writer) error {
	return r.sweepImprovement(w,
		"Figure 2 — WBHT runtime improvement vs outstanding misses (paper: rises with pressure to ~5-13%; NotesBench flat; TP negative at 2)",
		func(name string, o int) sweep.Job {
			return sweep.Job{Workload: name, Mechanism: config.WBHT, Outstanding: o}
		})
}

// Figure3 reproduces "Runtime Improvement of Updating All WBHTs Using
// L3 Snoop Response" (global allocation variant).
func (r *Runner) Figure3(w io.Writer) error {
	return r.sweepImprovement(w,
		"Figure 3 — WBHT with global allocation vs outstanding misses (paper: same trends as Fig 2, small extra gain at high pressure)",
		func(name string, o int) sweep.Job {
			return sweep.Job{Workload: name, Mechanism: config.WBHT, Outstanding: o, Knobs: config.Knobs{GlobalWBHT: true}}
		})
}

// sizeSweep renders one table-size figure: runtime normalized to the
// 512-entry configuration at 6 outstanding misses. All grid points are
// prefetched through the sweep pool before rendering.
func (r *Runner) sizeSweep(w io.Writer, title string, variant func(string, int) sweep.Job) error {
	var jobs []sweep.Job
	for _, name := range Workloads {
		jobs = append(jobs, variant(name, 512))
		for _, entries := range r.opts.tableSizes() {
			jobs = append(jobs, variant(name, entries))
		}
	}
	if err := r.prefetch(jobs); err != nil {
		return err
	}
	headers := []string{"Workload"}
	for _, n := range r.opts.tableSizes() {
		headers = append(headers, fmt.Sprintf("%d", n))
	}
	t := stats.NewTable(title, headers...)
	for _, name := range Workloads {
		base := r.result(variant(name, 512))
		cells := []string{workload.PaperName(name)}
		for _, entries := range r.opts.tableSizes() {
			res := r.result(variant(name, entries))
			cells = append(cells, fmt.Sprintf("%.4f", stats.Normalized(base.Cycles, res.Cycles)))
		}
		t.AddRow(cells...)
	}
	return r.render(w, t)
}

// Figure4 reproduces "Normalized Runtime of Varying L2 WBHT Sizes
// Normalized to 512-Entry WBHT System": bigger tables help every
// workload, Trade2 by far the most.
func (r *Runner) Figure4(w io.Writer) error {
	return r.sizeSweep(w,
		"Figure 4 — runtime vs WBHT entries, normalized to 512 (paper: all improve with size; Trade2 most, to ~0.78)",
		func(name string, entries int) sweep.Job {
			return sweep.Job{Workload: name, Mechanism: config.WBHT, Outstanding: 6, Knobs: config.Knobs{WBHTEntries: entries}}
		})
}

// Figure5 reproduces "Runtime Improvement Over Baseline of Allowing L2
// Snarfing".
func (r *Runner) Figure5(w io.Writer) error {
	return r.sweepImprovement(w,
		"Figure 5 — L2 snarfing runtime improvement vs outstanding misses (paper: TP largest ~13%; CPW2/NotesBench flat ~2%)",
		func(name string, o int) sweep.Job {
			return sweep.Job{Workload: name, Mechanism: config.Snarf, Outstanding: o}
		})
}

// Figure6 reproduces "Runtime of Varying L2 Snarf Table Sizes Normalized
// to 512-Entry Snarf Table System": little sensitivity beyond a point,
// Trade2 the most sensitive (<= ~4.5%).
func (r *Runner) Figure6(w io.Writer) error {
	return r.sizeSweep(w,
		"Figure 6 — runtime vs snarf-table entries, normalized to 512 (paper: weak sensitivity; Trade2 up to ~4.5%)",
		func(name string, entries int) sweep.Job {
			return sweep.Job{Workload: name, Mechanism: config.Snarf, Outstanding: 6, Knobs: config.Knobs{SnarfEntries: entries}}
		})
}

// Figure7 reproduces "Runtime Improvement Over Baseline of Combined
// Tables" (both mechanisms, 16K-entry tables each): benefits are not
// additive; TP beats either mechanism alone.
func (r *Runner) Figure7(w io.Writer) error {
	return r.sweepImprovement(w,
		"Figure 7 — combined WBHT+snarfing (16K-entry tables) vs outstanding misses (paper: not additive; TP better than either alone)",
		func(name string, o int) sweep.Job {
			return sweep.Job{Workload: name, Mechanism: config.Combined, Outstanding: o}
		})
}

// Ablations exercises the design choices DESIGN.md calls out beyond the
// paper's own figures, at 6 outstanding misses.
func (r *Runner) Ablations(w io.Writer) error {
	variants := []struct {
		name string
		job  func(string) sweep.Job
	}{
		{"WBHT", func(n string) sweep.Job { return sweep.Job{Workload: n, Mechanism: config.WBHT, Outstanding: 6} }},
		{"WBHT no-switch", func(n string) sweep.Job {
			return sweep.Job{Workload: n, Mechanism: config.WBHT, Outstanding: 6, Knobs: config.Knobs{NoSwitch: true}}
		}},
		{"Snarf", func(n string) sweep.Job { return sweep.Job{Workload: n, Mechanism: config.Snarf, Outstanding: 6} }},
		{"Snarf LRU-insert", func(n string) sweep.Job {
			return sweep.Job{Workload: n, Mechanism: config.Snarf, Outstanding: 6, Knobs: config.Knobs{SnarfLRU: true}}
		}},
		{"Snarf invalid-only", func(n string) sweep.Job {
			return sweep.Job{Workload: n, Mechanism: config.Snarf, Outstanding: 6, Knobs: config.Knobs{InvalidOnly: true}}
		}},
		{"Combined", func(n string) sweep.Job { return sweep.Job{Workload: n, Mechanism: config.Combined, Outstanding: 6} }},
		{"WBHT coarse x4", func(n string) sweep.Job {
			return sweep.Job{Workload: n, Mechanism: config.WBHT, Outstanding: 6, Knobs: config.Knobs{LinesPerEntry: 4}}
		}},
		{"WBHT hist-repl", func(n string) sweep.Job {
			return sweep.Job{Workload: n, Mechanism: config.WBHT, Outstanding: 6, Knobs: config.Knobs{HistoryRepl: true}}
		}},
	}
	// The low-pressure pair: the adaptive WBHT and one forced on.
	adaptive := func(n string) sweep.Job { return sweep.Job{Workload: n, Mechanism: config.WBHT, Outstanding: 1} }
	forced := func(n string) sweep.Job {
		return sweep.Job{Workload: n, Mechanism: config.WBHT, Outstanding: 1, Knobs: config.Knobs{NoSwitch: true}}
	}
	var jobs []sweep.Job
	for _, name := range Workloads {
		jobs = append(jobs, baseJob(name, 6), baseJob(name, 1), adaptive(name), forced(name))
		for _, v := range variants {
			jobs = append(jobs, v.job(name))
		}
	}
	if err := r.prefetch(jobs); err != nil {
		return err
	}
	headers := []string{"Workload"}
	for _, v := range variants {
		headers = append(headers, v.name)
	}
	t := stats.NewTable("Ablations (6 outstanding) — runtime improvement over baseline", headers...)
	for _, name := range Workloads {
		base := r.base(name, 6)
		cells := []string{workload.PaperName(name)}
		for _, v := range variants {
			res := r.result(v.job(name))
			cells = append(cells, fmt.Sprintf("%+.2f%%", stats.Improvement(base.Cycles, res.Cycles)))
		}
		t.AddRow(cells...)
	}
	if err := r.render(w, t); err != nil {
		return err
	}

	// Low-pressure safety check (the Section 2.2 motivation): at 1
	// outstanding miss, the forced-on WBHT must not beat the adaptive one
	// by construction — the switch exists because forcing can hurt.
	t2 := stats.NewTable("Ablation — retry switch at low pressure (1 outstanding): improvement over baseline",
		"Workload", "WBHT adaptive", "WBHT forced on")
	for _, name := range Workloads {
		base := r.base(name, 1)
		t2.AddRowf(workload.PaperName(name),
			fmt.Sprintf("%+.2f%%", stats.Improvement(base.Cycles, r.result(adaptive(name)).Cycles)),
			fmt.Sprintf("%+.2f%%", stats.Improvement(base.Cycles, r.result(forced(name)).Cycles)))
	}
	return r.render(w, t2)
}

// SummaryTable renders a compact per-workload baseline characterization
// used by cmpbench's header output.
func (r *Runner) SummaryTable(w io.Writer) error {
	if err := r.prefetchBaselines(6); err != nil {
		return err
	}
	t := stats.NewTable("Baseline characterization (6 outstanding)",
		"Workload", "Cycles", "L2 hit %", "L3 load hit %", "Already-in-L3 %", "WB requests", "L3 retries")
	for _, name := range Workloads {
		res := r.base(name, 6)
		t.AddRowf(workload.PaperName(name), res.Cycles,
			100*res.L2HitRate(), 100*res.L3LoadHitRate(),
			res.PctCleanWBAlreadyInL3(), res.WBRequests, res.L3RetriesIssued)
	}
	return r.render(w, t)
}
