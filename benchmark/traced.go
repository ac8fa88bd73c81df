package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
)

// layerMetrics computes the per-layer metrics of a traced run from its
// plain pass, its traced pass and the spans both it and the in-process
// pass recorded. A layer the workload does not exercise reads 0.
func (r *runner) layerMetrics(plain, traced *pass) (map[string]float64, error) {
	m := make(map[string]float64)
	for _, d := range perLayer() {
		m[d.Name] = 0
	}

	var profiles []string
	for _, p := range r.profiles {
		if _, err := os.Stat(p); err == nil {
			profiles = append(profiles, p)
		}
	}
	if len(profiles) > 0 {
		out, err := exec.CommandContext(r.ctx, "go", append([]string{"tool", "pprof", "-traces"}, profiles...)...).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool pprof -traces: %w", err)
		}
		samples, err := parseTraces(string(out))
		if err != nil {
			return nil, err
		}
		byLayer, byCause := cpuShares(samples)
		for k, v := range byLayer {
			m["cpu."+k] = v
		}
		for k, v := range byCause {
			m["cpu.cause."+k] = v
		}
	}

	util := make([]float64, len(traced.cpu))
	for i := range traced.cpu {
		util[i] = 100 * traced.cpu[i] / (traced.life[i] * float64(runtime.NumCPU()))
	}
	m["proc.cpu_s"] = median(traced.cpu)
	m["proc.cpu_util"] = median(util)

	for k, v := range deriveModel(traced.model) {
		m[k] = v
	}

	spans := r.spans.spans
	self := selfTimes(spans)
	for _, sm := range spanMetrics {
		var vals []float64
		for i, s := range spans {
			if s.Name != sm.span {
				continue
			}
			v := float64(self[i])
			switch sm.unit {
			case "ms":
				v /= 1e6
			case "us":
				v /= 1e3
			case "ns/ref":
				v /= float64(max(s.Refs, 1))
			}
			vals = append(vals, v)
		}
		if len(vals) > 0 {
			m[sm.metric+".p50"] = median(vals)
			m[sm.metric+".p95"] = percentile(vals, 95)
		}
	}

	for k, v := range counterValues(r.counters) {
		m[k] = v
	}
	m["trace_overhead"] = median(traced.wall)/median(plain.wall) - 1
	return m, nil
}

// counterValues reads the serve.* and sweep.* metrics from the program's
// own telemetry (cmpserved's /metrics, cmpsweep -telemetry-out).
func counterValues(text string) map[string]float64 {
	sum := func(name string) float64 { return promSum(text, name, "") }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	mean := func(hist, filter string) float64 {
		return ratio(promSum(text, hist+"_sum", filter), promSum(text, hist+"_count", filter))
	}
	opens, hits := sum("cmpsweep_trace_source_opens_total"), sum("cmpsweep_trace_source_cache_hits_total")
	return map[string]float64{
		"serve.queue_wait_s_mean":  mean("cmpserved_job_queue_seconds", ""),
		"serve.run_s_mean":         mean("cmpserved_job_run_seconds", ""),
		"serve.http_submit_s_mean": mean("cmpserved_http_request_seconds", `route="POST /v1/jobs"`),
		"serve.sim_runs":           sum("cmpserved_sim_runs_total"),
		"serve.cache_hit_ratio":    ratio(sum("cmpserved_cache_hits_total"), sum("cmpserved_jobs_submitted_total")),
		"serve.collapsed":          sum("cmpserved_jobs_collapsed_total"),
		"serve.rejected":           sum("cmpserved_jobs_rejected_total"),
		"serve.failed":             sum("cmpserved_jobs_failed_total"),
		"sweep.queue_s_mean":       mean("cmpsweep_pool_job_queue_seconds", ""),
		"sweep.job_s_mean":         mean("cmpsweep_pool_job_seconds", ""),
		"sweep.source_hit_ratio":   ratio(hits, opens+hits),
		"sweep.deduped":            sum("cmpsweep_pool_jobs_deduped_total"),
	}
}
