package main

import (
	"fmt"

	"cmpcache/internal/system"
)

// metricDef is one end-to-end metric: what a user of the programs sees.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the worsening, as a share of the parent's median, allowed
	// before a change counts as a regression.
	Bound float64
	// Exact marks a simulated statistic. It depends only on the seed and
	// the model, so compare requires it to repeat bit for bit per seed;
	// Bound only covers its spread across seeds.
	Exact bool
	// Unlisted marks a metric this benchmark reports and compares but
	// BENCHMARK.json leaves out, because not every workload produces it
	// (the serve latency percentiles) or it is normally 0 (failed_frac).
	// Every other metric comes from every workload.
	Unlisted bool
}

// endToEnd lists the end-to-end metrics in report order. Host time on
// the shared 2-vCPU host the bounds were set on drifts by up to a fifth
// from one half-minute run to the next, and the programs' CPU time
// drifts with it. Scaled by the calibration (calibrate.go), rates and
// latencies still spread (interquartile range over median across ten
// seeds) by up to 11%, so their bound is 0.25; sim_cycles gets
// three times its largest seed-to-seed spread, 7.1%. setup_s, whose
// spread is not gated, gets the largest bound (README.md, "Recorded
// numbers").
var endToEnd = []metricDef{
	{Name: "refs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "sim_cycles", Unit: "cycles", Better: "lower", Bound: 0.22, Exact: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "failed_frac", Unit: "frac", Better: "lower", Bound: 0, Unlisted: true},
	{Name: "cold_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, Unlisted: true},
	{Name: "cold_ms_p95", Unit: "ms", Better: "lower", Bound: 0.25, Unlisted: true},
	{Name: "warm_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, Unlisted: true},
	{Name: "warm_ms_p99", Unit: "ms", Better: "lower", Bound: 0.25, Unlisted: true},
}

// layerDef is one per-layer metric. Per-layer metrics come only from the
// traced run and carry no bound; a workload that does not exercise a
// layer reports 0 for it.
type layerDef struct {
	Name   string
	Unit   string
	Better string
}

// spanMetrics are the layer calls whose self time the traced run reports
// at p50 and p95, with the unit each is reported in.
var spanMetrics = []struct {
	span, metric, unit string
}{
	{"trace.open", "span.trace.open_ms", "ms"},
	{"trace.decode", "span.trace.decode_ns_per_ref", "ns/ref"},
	{"system.new", "span.system.new_ms", "ms"},
	{"system.run", "span.system.run_ns_per_ref", "ns/ref"},
	{"results.marshal", "span.results.marshal_ms", "ms"},
	{"sweep.key", "span.sweep.key_us", "us"},
	{"serve.cache_put", "span.serve.cache_put_us", "us"},
	{"serve.cache_get_l1", "span.serve.cache_get_l1_us", "us"},
	{"serve.cache_get_l2", "span.serve.cache_get_l2_us", "us"},
	{"http.submit_cold", "span.http.submit_cold_ms", "ms"},
	{"http.submit_warm", "span.http.submit_warm_ms", "ms"},
	{"http.events_wait", "span.http.events_wait_ms", "ms"},
	{"http.result_get", "span.http.result_get_ms", "ms"},
}

var modelMetrics = []layerDef{
	{"model.events_per_ref", "events/ref", "lower"},
	{"model.l3.demand_hit_rate", "frac", "higher"},
	{"model.l3.retry_rate", "frac", "lower"},
	{"model.ring.addr_util", "frac", "lower"},
	{"model.ring.data_util", "frac", "lower"},
	{"model.ring.data_wait_per_txn", "cycles", "lower"},
	{"model.l2.peer_fill_frac", "frac", "higher"},
	{"model.mem.reads_per_kref", "1/kref", "lower"},
	{"model.wb.to_l3_frac", "frac", "lower"},
	{"model.wb.snarfed_frac", "frac", "higher"},
	{"model.switch.active_frac", "frac", "lower"},
}

var counterMetrics = []layerDef{
	{"serve.queue_wait_s_mean", "s", "lower"},
	{"serve.run_s_mean", "s", "lower"},
	{"serve.http_submit_s_mean", "s", "lower"},
	{"serve.sim_runs", "count", "lower"},
	{"serve.cache_hit_ratio", "frac", "higher"},
	{"serve.collapsed", "count", "higher"},
	{"serve.rejected", "count", "lower"},
	{"serve.failed", "count", "lower"},
	{"sweep.queue_s_mean", "s", "lower"},
	{"sweep.job_s_mean", "s", "lower"},
	{"sweep.source_hit_ratio", "frac", "higher"},
	{"sweep.deduped", "count", "higher"},
}

// perLayer lists every per-layer metric in report order. Shares, times
// and costs read better lower.
func perLayer() []layerDef {
	var out []layerDef
	for _, l := range append(append([]string{}, layers...), "runtime", "other") {
		out = append(out, layerDef{"cpu." + l, "%", "lower"})
	}
	for _, c := range causes {
		out = append(out, layerDef{"cpu.cause." + c.name, "%", "lower"})
	}
	out = append(out, layerDef{"proc.cpu_s", "s", "lower"}, layerDef{"proc.cpu_util", "%", "lower"})
	out = append(out, modelMetrics...)
	for _, s := range spanMetrics {
		out = append(out, layerDef{s.metric + ".p50", s.unit, "lower"}, layerDef{s.metric + ".p95", s.unit, "lower"})
	}
	out = append(out, counterMetrics...)
	return append(out, layerDef{"trace_overhead", "frac", "lower"})
}

// deriveModel computes the model.* metrics from one repetition's
// simulation results, summing numerators and denominators over its jobs.
// They are pure functions of the results, so they repeat exactly.
func deriveModel(rs []*system.Results) map[string]float64 {
	var events, refs, l3Hits, l3Lookups, l3Retries, addrTxns, dataWait, dataTxns uint64
	var peer, fills, memReads, wbReq, wbToL3, wbSnarfed, swActive, swTotal, cycles uint64
	var addrBusy, dataBusy float64
	for _, r := range rs {
		events += r.EventsFired
		refs += r.RefsCompleted
		l3Hits += r.L3DemandHits
		l3Lookups += r.L3DemandLookups
		l3Retries += r.L3RetriesIssued
		addrTxns += r.AddressTxns
		dataWait += r.DataWaited
		dataTxns += r.DataTransfers
		peer += r.FillsFromPeer
		fills += r.FillsFromPeer + r.FillsFromL3 + r.FillsFromMem
		memReads += r.MemReads
		wbReq += r.WBRequests
		wbToL3 += r.WBToL3
		wbSnarfed += r.WBSnarfed
		swActive += r.SwitchActiveWindows
		swTotal += r.SwitchTotalWindows
		cycles += r.Cycles
		addrBusy += r.AddressUtil * float64(r.Cycles)
		dataBusy += r.DataUtil * float64(r.Cycles)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	f := func(v uint64) float64 { return float64(v) }
	return map[string]float64{
		"model.events_per_ref":         ratio(f(events), f(refs)),
		"model.l3.demand_hit_rate":     ratio(f(l3Hits), f(l3Lookups)),
		"model.l3.retry_rate":          ratio(f(l3Retries), f(addrTxns)),
		"model.ring.addr_util":         ratio(addrBusy, f(cycles)),
		"model.ring.data_util":         ratio(dataBusy, f(cycles)),
		"model.ring.data_wait_per_txn": ratio(f(dataWait), f(dataTxns)),
		"model.l2.peer_fill_frac":      ratio(f(peer), f(fills)),
		"model.mem.reads_per_kref":     ratio(1000*f(memReads), f(refs)),
		"model.wb.to_l3_frac":          ratio(f(wbToL3), f(wbReq)),
		"model.wb.snarfed_frac":        ratio(f(wbSnarfed), f(wbReq)),
		"model.switch.active_frac":     ratio(f(swActive), f(swTotal)),
	}
}

// checkResults applies the output checks every simulation result must
// pass: every issued reference completed, the run replayed exactly the
// capture's records, and no resource was still held when it drained.
func checkResults(r *system.Results, records int64) error {
	switch {
	case r.RefsCompleted != r.RefsIssued:
		return fmt.Errorf("%d refs issued but %d completed", r.RefsIssued, r.RefsCompleted)
	case int64(r.RefsCompleted) != records:
		return fmt.Errorf("%d refs completed, capture holds %d", r.RefsCompleted, records)
	case r.ResidualMSHRs != 0 || r.ResidualWBQueued != 0 || r.ResidualWBInFlight != 0 || r.ResidualL3QueueTokens != 0:
		return fmt.Errorf("residual resources: %d MSHRs, %d queued and %d in-flight write backs, %d L3 queue tokens",
			r.ResidualMSHRs, r.ResidualWBQueued, r.ResidualWBInFlight, r.ResidualL3QueueTokens)
	}
	return nil
}
