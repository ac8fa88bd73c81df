package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"cmpcache/internal/config"
	"cmpcache/internal/trace"
	"cmpcache/internal/workload"
)

// Plan describes a sweep grid. Jobs() expands the cross product
// workloads x mechanisms x outstanding x table sizes into concrete
// jobs. Empty axes fall back to sensible defaults: all built-in
// workloads, all four mechanisms, the configured outstanding default,
// and the paper-default table sizes.
type Plan struct {
	Workloads []string
	// TraceFiles are captured-trace inputs (sharded trace directories)
	// swept alongside — or instead of — the synthetic workloads. When
	// TraceFiles is non-empty and Workloads is empty, the grid runs only
	// the traces (workloads do NOT default to "all").
	TraceFiles  []string
	Mechanisms  []config.Mechanism
	Outstanding []int
	// TableSizes overrides the active mechanism's table entries: WBHT
	// entries for WBHT jobs, snarf-table entries for Snarf jobs, both
	// (as in Section 5.3's equal-capacity split) for Combined jobs.
	// Baseline jobs carry no tables and ignore the axis.
	TableSizes []int
	// RefsPerThread overrides the workload length (0 = profile default).
	RefsPerThread int
}

// Jobs expands the plan. Baseline configurations are emitted once per
// (workload, outstanding) pair regardless of the size axis, so the grid
// never contains trivially identical baseline jobs.
func (p Plan) Jobs() []Job {
	workloads := p.Workloads
	if len(workloads) == 0 && len(p.TraceFiles) == 0 {
		workloads = workload.Names()
	}
	mechanisms := p.Mechanisms
	if len(mechanisms) == 0 {
		mechanisms = []config.Mechanism{config.Baseline, config.WBHT, config.Snarf, config.Combined}
	}
	outstanding := p.Outstanding
	if len(outstanding) == 0 {
		outstanding = []int{0}
	}
	sizes := p.TableSizes
	if len(sizes) == 0 {
		sizes = []int{0}
	}

	// Synthetic workloads and trace replays share the grid's other axes;
	// a trace input replays its whole capture, so RefsPerThread applies
	// only to synthesis.
	type input struct{ workload, traceFile string }
	inputs := make([]input, 0, len(workloads)+len(p.TraceFiles))
	for _, w := range workloads {
		inputs = append(inputs, input{workload: w})
	}
	for _, tf := range p.TraceFiles {
		inputs = append(inputs, input{traceFile: tf})
	}

	var jobs []Job
	for _, in := range inputs {
		for _, o := range outstanding {
			for _, m := range mechanisms {
				base := Job{
					Workload:    in.workload,
					TraceFile:   in.traceFile,
					Mechanism:   m,
					Outstanding: o,
				}
				if in.traceFile == "" {
					base.RefsPerThread = p.RefsPerThread
				}
				if m == config.Baseline {
					jobs = append(jobs, base)
					continue
				}
				for _, s := range sizes {
					j := base
					switch m {
					case config.WBHT:
						j.WBHTEntries = s
					case config.Snarf:
						j.SnarfEntries = s
					case config.Combined:
						j.WBHTEntries = s
						j.SnarfEntries = s
					case config.ReuseDist:
						j.ReuseEntries = s
					case config.HybridUI:
						j.HybridEntries = s
					}
					jobs = append(jobs, j)
				}
			}
		}
	}
	return jobs
}

// Validate checks that the workload length is not negative, every named
// workload exists and every trace input resolves to a readable capture,
// so a misspelled grid or a missing trace fails before any simulation
// starts.
func (p Plan) Validate() error {
	if p.RefsPerThread < 0 {
		return fmt.Errorf("sweep: RefsPerThread = %d, must be >= 0", p.RefsPerThread)
	}
	for _, w := range p.Workloads {
		if _, err := workload.ByName(w); err != nil {
			return err
		}
	}
	for _, tf := range p.TraceFiles {
		if _, err := trace.Describe(tf); err != nil {
			return fmt.Errorf("sweep: trace %s: %w", tf, err)
		}
	}
	return nil
}

// ParseIntSpec parses a sweep-axis specification: comma-separated
// values and inclusive ranges, e.g. "1-6", "512,2048,8192" or "1-3,6".
func ParseIntSpec(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err := strconv.Atoi(strings.TrimSpace(lo))
			if err != nil {
				return nil, fmt.Errorf("sweep: bad range %q in %q", part, spec)
			}
			b, err := strconv.Atoi(strings.TrimSpace(hi))
			if err != nil {
				return nil, fmt.Errorf("sweep: bad range %q in %q", part, spec)
			}
			if b < a {
				return nil, fmt.Errorf("sweep: descending range %q in %q", part, spec)
			}
			for v := a; v <= b; v++ {
				out = append(out, v)
			}
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad value %q in %q", part, spec)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: empty spec %q", spec)
	}
	return out, nil
}

// ParseMechanisms parses a comma-separated mechanism list ("base,wbht")
// or one of the shorthands: "all" expands to every registered policy,
// "paper" to the paper's four configurations.
func ParseMechanisms(spec string) ([]config.Mechanism, error) {
	switch strings.ToLower(strings.TrimSpace(spec)) {
	case "all":
		return []config.Mechanism{config.Baseline, config.WBHT, config.Snarf, config.Combined,
			config.ReuseDist, config.HybridUI}, nil
	case "paper":
		return []config.Mechanism{config.Baseline, config.WBHT, config.Snarf, config.Combined}, nil
	}
	var out []config.Mechanism
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var m config.Mechanism
		if err := m.UnmarshalText([]byte(part)); err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: empty mechanism spec %q", spec)
	}
	return out, nil
}

// ParseWorkloads parses a comma-separated workload list or "all".
func ParseWorkloads(spec string) ([]string, error) {
	if strings.EqualFold(strings.TrimSpace(spec), "all") {
		return workload.Names(), nil
	}
	var out []string
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if _, err := workload.ByName(part); err != nil {
			return nil, err
		}
		out = append(out, strings.ToLower(part))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: empty workload spec %q", spec)
	}
	return out, nil
}
