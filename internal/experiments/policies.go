package experiments

import (
	"io"

	"cmpcache/internal/config"
	"cmpcache/internal/stats"
	"cmpcache/internal/sweep"
	"cmpcache/internal/workload"
)

// policyMechs is the full registered-policy set the comparison sweeps,
// in registry order: the paper's four configurations plus the two
// literature policies ported onto the wbpolicy plug-in interface.
var policyMechs = []config.Mechanism{
	config.Baseline, config.WBHT, config.Snarf, config.Combined,
	config.ReuseDist, config.HybridUI,
}

// Policies renders the policy plug-in comparison: every registered
// write-back policy on every workload at 6 outstanding loads, followed
// by the two literature policies' internal decision statistics. No
// paper reference columns exist here — the four paper configurations
// are judged against the paper by Tables 4/5 and Figures 2..7; this
// artifact ranks the plug-ins against each other on equal traces.
func (r *Runner) Policies(w io.Writer) error {
	var jobs []sweep.Job
	for _, name := range Workloads {
		for _, m := range policyMechs {
			jobs = append(jobs, sweep.Job{Workload: name, Mechanism: m, Outstanding: 6})
		}
	}
	if err := r.prefetch(jobs); err != nil {
		return err
	}

	t := stats.NewTable("Policy comparison — all registered write-back policies (6 outstanding)",
		"Workload", "Policy", "Cycles", "Improvement %", "Off-chip accesses",
		"Off-chip reduction %", "L2 WB requests", "WB reduction %")
	for _, name := range Workloads {
		base := r.base(name, 6)
		for i, m := range policyMechs {
			res := r.result(sweep.Job{Workload: name, Mechanism: m, Outstanding: 6})
			label := workload.PaperName(name)
			if i > 0 {
				label = ""
			}
			t.AddRowf(label, m.String(), res.Cycles,
				stats.Improvement(base.Cycles, res.Cycles),
				res.OffChipAccesses(),
				stats.Reduction(base.OffChipAccesses(), res.OffChipAccesses()),
				res.WBRequests,
				stats.Reduction(base.WBRequests, res.WBRequests))
		}
	}
	if err := r.render(w, t); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}

	rd := stats.NewTable("reusedist — sketch gating detail (6 outstanding)",
		"Workload", "Evictions", "Samples", "Consults", "Cold passes",
		"Aborts", "Aborts w/ line in L3")
	for _, name := range Workloads {
		res := r.result(sweep.Job{Workload: name, Mechanism: config.ReuseDist, Outstanding: 6})
		p := res.Policy
		rd.AddRowf(workload.PaperName(name), p.SketchEvictions, p.SketchSamples,
			p.PredictConsults, p.PredictCold, p.PredictAborts, p.AbortsLineInL3)
	}
	if err := r.render(w, rd); err != nil {
		return err
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}

	hy := stats.NewTable("hybridui — upgrade routing detail (6 outstanding)",
		"Workload", "Scored reads", "Update pushes", "Invalidate upgrades",
		"Update share %", "Upgrades committed as updates")
	for _, name := range Workloads {
		res := r.result(sweep.Job{Workload: name, Mechanism: config.HybridUI, Outstanding: 6})
		p := res.Policy
		share := 0.0
		if total := p.UpdatePushes + p.InvalidateUpgrades; total > 0 {
			share = 100 * float64(p.UpdatePushes) / float64(total)
		}
		hy.AddRowf(workload.PaperName(name), p.ScoredReads, p.UpdatePushes,
			p.InvalidateUpgrades, share, res.UpgradeUpdates)
	}
	return r.render(w, hy)
}
