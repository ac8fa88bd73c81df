package txlat

import (
	"fmt"
	"sort"
	"strings"

	"cmpcache/internal/config"
	"cmpcache/internal/stats"
)

// StageReport is one stage's latency distribution within a group.
type StageReport struct {
	Stage string
	stats.Summary
}

// GroupReport is the latency population of one (kind × outcome ×
// switch-state) class.
type GroupReport struct {
	Kind         string
	Outcome      string
	SwitchActive bool
	WriteBack    bool
	Total        stats.Summary
	// Service is Total minus the frontend stage: latency from bus
	// arbitration onward, comparable against the paper's contention-free
	// load latencies (identical to Total for write backs, whose records
	// open at queue insertion).
	Service stats.Summary
	Stages  []StageReport
}

// SlowTxn is one entry of the slowest-transactions reservoir: the full
// stage vector of an individual transaction.
type SlowTxn struct {
	Kind         string
	Outcome      string
	SwitchActive bool
	WriteBack    bool
	L2           int
	Key          uint64
	Start        config.Cycles
	End          config.Cycles
	Total        uint64
	Stages       map[string]uint64
}

// Window is one interval's latency digest (Interval > 0 only).
type Window struct {
	Window    int
	Start     config.Cycles
	End       config.Cycles
	Demand    stats.Summary
	WriteBack stats.Summary
}

// Report is a run's frozen latency-attribution output.
type Report struct {
	Groups  []GroupReport
	Slowest []SlowTxn
	Windows []Window `json:",omitempty"`
	// Dropped counts open records that were superseded before closing
	// (should be 0; nonzero indicates an unhooked protocol path).
	Dropped uint64
}

// RunLatency is the shared file format written by `cmpsim -lat-out` and
// per job by `cmpsweep -lat-out`, and read back by cmpreport.
type RunLatency struct {
	Workload    string
	Mechanism   string
	Outstanding int
	Cycles      uint64
	Latency     *Report
}

func (c *Collector) buildReport() Report {
	keys := append([]groupKey(nil), c.keys...)
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if aw, bw := a.kind.IsWriteBack(), b.kind.IsWriteBack(); aw != bw {
			return !aw // demand classes first
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.out != b.out {
			return a.out < b.out
		}
		return !a.switchOn && b.switchOn
	})
	r := Report{Dropped: c.dropped}
	for _, k := range keys {
		g := c.groups[k]
		gr := GroupReport{
			Kind:         k.kind.String(),
			Outcome:      k.out.String(),
			SwitchActive: k.switchOn,
			WriteBack:    k.kind.IsWriteBack(),
			Total:        g.total.Summary(),
			Service:      g.service.Summary(),
		}
		list := demandStages
		if gr.WriteBack {
			list = wbStages
		}
		for _, st := range list {
			gr.Stages = append(gr.Stages, StageReport{Stage: st.String(), Summary: g.stages[st].Summary()})
		}
		r.Groups = append(r.Groups, gr)
	}
	slow := append([]SlowTxn(nil), c.slowest...)
	sort.Slice(slow, func(i, j int) bool {
		if slow[i].Total != slow[j].Total {
			return slow[i].Total > slow[j].Total
		}
		if slow[i].Start != slow[j].Start {
			return slow[i].Start < slow[j].Start
		}
		return slow[i].Key < slow[j].Key
	})
	r.Slowest = slow
	r.Windows = c.windows
	return r
}

// label is the group's one-line identity for report rows.
func (g *GroupReport) label() string {
	s := g.Kind + "/" + g.Outcome
	if g.SwitchActive {
		s += " [switch]"
	}
	return s
}

// QuantileTable renders every group's total-latency quantiles.
func (r *Report) QuantileTable(title string) string {
	t := stats.NewTable(title, "class", "n", "mean", "p50", "p90", "p99", "max", "svc mean")
	for i := range r.Groups {
		g := &r.Groups[i]
		t.AddRowf(g.label(), g.Total.Count, g.Total.Mean, g.Total.P50, g.Total.P90, g.Total.P99, g.Total.Max, g.Service.Mean)
	}
	return t.Markdown()
}

// StageBreakdown renders per-group mean and p99 cycles for each stage.
func (r *Report) StageBreakdown(title string) string {
	var b strings.Builder
	for i := range r.Groups {
		g := &r.Groups[i]
		t := stats.NewTable(fmt.Sprintf("%s — %s (n=%d)", title, g.label(), g.Total.Count),
			"stage", "mean", "p50", "p90", "p99", "max", "share%")
		mean := g.Total.Mean
		for _, s := range g.Stages {
			share := 0.0
			if mean > 0 {
				share = 100 * s.Mean / mean
			}
			t.AddRowf(s.Stage, s.Mean, s.P50, s.P90, s.P99, s.Max, share)
		}
		b.WriteString(t.Markdown())
		b.WriteString("\n")
	}
	return b.String()
}

// CriticalPath renders, per group, the stage that dominates the mean
// and the p99 — where the cycles actually go.
func (r *Report) CriticalPath(title string) string {
	t := stats.NewTable(title, "class", "n", "mean", "dominant stage", "stage mean", "share%", "stage p99")
	for i := range r.Groups {
		g := &r.Groups[i]
		var dom StageReport
		for _, s := range g.Stages {
			if s.Mean > dom.Mean {
				dom = s
			}
		}
		share := 0.0
		if g.Total.Mean > 0 {
			share = 100 * dom.Mean / g.Total.Mean
		}
		t.AddRowf(g.label(), g.Total.Count, g.Total.Mean, dom.Stage, dom.Mean, share, dom.P99)
	}
	return t.Markdown()
}

// StageStack renders an ASCII stacked-bar chart of each group's mean
// latency, one character class per stage, scaled to width columns.
func (r *Report) StageStack(title string, width int) string {
	if width <= 0 {
		width = 60
	}
	glyphs := map[string]byte{
		"frontend": 'f', "arb": 'a', "source": 's', "xfer": 'x',
		"wb_queue": 'q', "wb_retry": 'r', "wb_l3": 'l',
	}
	var maxMean float64
	for i := range r.Groups {
		if m := r.Groups[i].Total.Mean; m > maxMean {
			maxMean = m
		}
	}
	labelW := 0
	for i := range r.Groups {
		if n := len(r.Groups[i].label()); n > labelW {
			labelW = n
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", title)
	b.WriteString("```\n")
	for i := range r.Groups {
		g := &r.Groups[i]
		fmt.Fprintf(&b, "%-*s |", labelW, g.label())
		if maxMean > 0 {
			for _, s := range g.Stages {
				n := int(s.Mean / maxMean * float64(width))
				ch := glyphs[s.Stage]
				if ch == 0 {
					ch = '?'
				}
				b.WriteString(strings.Repeat(string(ch), n))
			}
		}
		fmt.Fprintf(&b, " %.0f\n", g.Total.Mean)
	}
	b.WriteString("legend: f=frontend a=arb s=source x=xfer q=wb_queue r=wb_retry l=wb_l3 (mean cycles)\n")
	b.WriteString("```\n")
	return b.String()
}

// fillSummary returns the service-latency digest of the largest
// demand-fill group with the given outcome (Read dominates in
// practice), used by cross-run comparisons where mechanism state is
// not the axis. Service latency (arbitration onward) is compared
// rather than the thread-observed total, whose MSHR-stall frontend
// component reflects load, not the fill source.
func (r *Report) fillSummary(outcome string) (stats.Summary, uint64) {
	var svc stats.Summary
	var n uint64
	for i := range r.Groups {
		g := &r.Groups[i]
		if g.WriteBack || g.Outcome != outcome {
			continue
		}
		if g.Total.Count > n {
			n = g.Total.Count
			svc = g.Service
		}
	}
	return svc, n
}

// InterventionComparison renders the paper's headline ratio — peer-L2
// intervention fills versus L3 fills — across a set of runs. Returns
// the table plus the per-run mean-latency ratios.
func InterventionComparison(runs []RunLatency) (string, map[string]float64) {
	t := stats.NewTable("L2-to-L2 intervention vs L3 fill latency (demand fills, service latency: arbitration onward)",
		"workload", "mechanism", "peer n", "peer mean", "peer p50", "peer p99",
		"l3 n", "l3 mean", "l3 p50", "l3 p99", "l3/peer mean ratio")
	ratios := make(map[string]float64)
	for _, run := range runs {
		if run.Latency == nil {
			continue
		}
		peer, pn := run.Latency.fillSummary("peer")
		l3, ln := run.Latency.fillSummary("l3")
		if pn == 0 && ln == 0 {
			continue
		}
		ratio := 0.0
		if peer.Mean > 0 {
			ratio = l3.Mean / peer.Mean
		}
		ratios[run.Workload+"/"+run.Mechanism] = ratio
		t.AddRowf(run.Workload, run.Mechanism,
			peer.Count, peer.Mean, peer.P50, peer.P99,
			l3.Count, l3.Mean, l3.P50, l3.P99, ratio)
	}
	return t.Markdown(), ratios
}

// WindowTable renders the interval series (p50/p99 per window for
// demand and write-back latency).
func (r *Report) WindowTable(title string) string {
	t := stats.NewTable(title, "window", "start", "end",
		"demand n", "demand p50", "demand p99", "wb n", "wb p50", "wb p99")
	for _, w := range r.Windows {
		t.AddRowf(w.Window, uint64(w.Start), uint64(w.End),
			w.Demand.Count, w.Demand.P50, w.Demand.P99,
			w.WriteBack.Count, w.WriteBack.P50, w.WriteBack.P99)
	}
	return t.Markdown()
}
