package system

import (
	"bytes"
	"encoding/json"
	"testing"

	"cmpcache/internal/audit"
	"cmpcache/internal/config"
	"cmpcache/internal/metrics"
	"cmpcache/internal/txlat"
	"cmpcache/internal/workload"
)

// TestObservationOnlySubsets is the composition contract for the whole
// observation surface: every subset of {probe, auditor, latency
// collector} attached together must leave the simulated outcome
// bit-identical to a plain run (only the Metrics/Latency carrier fields
// may differ, by construction).
func TestObservationOnlySubsets(t *testing.T) {
	cfg := config.Default().WithMechanism(config.Combined)
	tr := wbStormTrace(&cfg, 24)

	_, plain := run(t, cfg, tr)
	want, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name            string
		probe, aud, lat bool
		windowed        bool
	}{
		{name: "probe", probe: true},
		{name: "auditor", aud: true},
		{name: "latency", lat: true},
		{name: "latency-windowed", lat: true, windowed: true},
		{name: "probe+auditor", probe: true, aud: true},
		{name: "probe+latency", probe: true, lat: true},
		{name: "auditor+latency", aud: true, lat: true},
		{name: "all", probe: true, aud: true, lat: true},
		{name: "all-windowed", probe: true, aud: true, lat: true, windowed: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := newSystem(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			var a *audit.Auditor
			var c *txlat.Collector
			if tc.probe {
				s.Attach(Attachments{Probe: metrics.NewProbe(metrics.Config{Interval: 500})})
			}
			if tc.aud {
				a = audit.New(audit.Config{Differential: true, SweepEvery: 512})
				s.Attach(Attachments{Auditor: a})
			}
			if tc.lat {
				lcfg := txlat.Config{}
				if tc.windowed {
					lcfg.Interval = 500
				}
				c = txlat.New(lcfg)
				s.Attach(Attachments{Latency: c})
			}
			res := s.Run()
			if a != nil && !a.Ok() {
				t.Fatalf("auditor on a healthy run: %s", a.Summary())
			}
			if tc.probe && (res.Metrics == nil || len(res.Metrics.Samples) == 0) {
				t.Fatal("probed run carries no metrics series")
			}
			if tc.lat {
				if res.Latency == nil || len(res.Latency.Groups) == 0 {
					t.Fatal("latency run carries no report")
				}
				if res.Latency.Dropped != 0 {
					t.Errorf("collector dropped %d open records (unhooked protocol path)", res.Latency.Dropped)
				}
				if tc.windowed && len(res.Latency.Windows) == 0 {
					t.Error("windowed collector produced no windows")
				}
			}
			stripped := *res
			stripped.Metrics = nil
			stripped.Latency = nil
			got, err := json.Marshal(&stripped)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Errorf("%s attachment perturbed the simulation", tc.name)
			}
		})
	}
}

// TestLatencyAttributionOnWorkload runs a real workload with the
// collector attached and checks the attribution is internally
// consistent: per-class counts reconcile with the run's own counters,
// stage sums bound totals, and the paper's latency ordering (peer-L2
// intervention < L3 fill < memory fill) emerges from the measured
// source stages.
func TestLatencyAttributionOnWorkload(t *testing.T) {
	p, err := workload.ByName("tp")
	if err != nil {
		t.Fatal(err)
	}
	// Large enough that the L3 victim cache starts supplying fills (it
	// only holds previously written-back lines), small enough to stay a
	// sub-second unit test.
	p.RefsPerThread = 12000
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default().WithMechanism(config.Snarf)
	s, err := newSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	c := txlat.New(txlat.Config{TopK: 8})
	s.Attach(Attachments{Latency: c})
	res := s.Run()
	rep := res.Latency
	if rep == nil {
		t.Fatal("no latency report")
	}
	if rep.Dropped != 0 {
		t.Fatalf("collector dropped %d records", rep.Dropped)
	}

	// Fill-outcome counts must reconcile exactly with the system's own
	// fill-source counters.
	counts := map[string]uint64{}
	wbCounts := map[string]uint64{}
	means := map[string]float64{}
	for _, g := range rep.Groups {
		if g.WriteBack {
			wbCounts[g.Outcome] += g.Total.Count
			continue
		}
		counts[g.Outcome] += g.Total.Count
		if g.Kind == "READ" {
			// Compare on service latency (arbitration onward): the
			// frontend MSHR-stall wait reflects load, not the fill
			// source.
			means[g.Outcome] = g.Service.Mean
		}
	}
	if counts["peer"] != res.FillsFromPeer || counts["l3"] != res.FillsFromL3 || counts["mem"] != res.FillsFromMem {
		t.Errorf("fill counts (peer %d l3 %d mem %d) != counters (%d %d %d)",
			counts["peer"], counts["l3"], counts["mem"],
			res.FillsFromPeer, res.FillsFromL3, res.FillsFromMem)
	}
	if counts["none"] != res.Upgrades {
		t.Errorf("upgrade count %d != %d", counts["none"], res.Upgrades)
	}

	// Bus-resolved write-back dispositions reconcile exactly with the
	// run's counters; to-l3 can lag (records still awaiting L3
	// retirement when the engine drains never commit) and cancelled can
	// lead (demand accesses also reclaim entries that never reached the
	// bus).
	if wbCounts["snarf"] != res.WBSnarfed {
		t.Errorf("snarf records %d != counter %d", wbCounts["snarf"], res.WBSnarfed)
	}
	if wbCounts["squash-l3"] != res.WBSquashedL3 {
		t.Errorf("squash-l3 records %d != counter %d", wbCounts["squash-l3"], res.WBSquashedL3)
	}
	if wbCounts["squash-peer"] != res.WBSquashedPeer {
		t.Errorf("squash-peer records %d != counter %d", wbCounts["squash-peer"], res.WBSquashedPeer)
	}
	if n := wbCounts["to-l3"]; n == 0 || n > res.WBToL3+res.SnarfFallbacks {
		t.Errorf("to-l3 records %d vs counters toL3=%d fallbacks=%d", n, res.WBToL3, res.SnarfFallbacks)
	}
	if wbCounts["cancelled"] < res.WBCancelled {
		t.Errorf("cancelled records %d < on-bus cancellations %d", wbCounts["cancelled"], res.WBCancelled)
	}

	// The paper's ordering: on-chip intervention beats the off-chip L3,
	// which beats memory.
	if means["peer"] == 0 || means["l3"] == 0 {
		t.Fatalf("workload produced no peer/L3 fills to compare: %v", means)
	}
	if !(means["peer"] < means["l3"]) {
		t.Errorf("peer fill mean %.1f not below L3 fill mean %.1f", means["peer"], means["l3"])
	}
	if means["mem"] != 0 && !(means["l3"] < means["mem"]) {
		t.Errorf("L3 fill mean %.1f not below memory fill mean %.1f", means["l3"], means["mem"])
	}

	// Stage sums must equal the recorded totals (no unattributed gaps):
	// spot-check via the slowest-transaction vectors, which carry exact
	// per-transaction stages.
	if len(rep.Slowest) == 0 {
		t.Fatal("empty slowest reservoir")
	}
	for _, tx := range rep.Slowest {
		var sum uint64
		for _, v := range tx.Stages {
			sum += v
		}
		if sum != tx.Total {
			t.Errorf("slow txn %#x: stage sum %d != total %d (%v)", tx.Key, sum, tx.Total, tx.Stages)
		}
	}
}
