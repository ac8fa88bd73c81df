package cmpcache_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"cmpcache"
	"cmpcache/internal/config"
	"cmpcache/internal/metrics"
	"cmpcache/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/results.sha256 from the current simulator")

// goldenRefs is the per-thread trace length of every golden run: long
// enough that each mechanism's tables, the retry switch and the snarf
// path see traffic, short enough that the matrix stays a tier-1 test.
const goldenRefs = 3000

// bigchipRefs is the per-thread trace length of the bigchip golden run,
// whose 128 threads make each reference cost more wall time; it keeps
// that entry's run under about half a second.
const bigchipRefs = 400

const goldenFile = "testdata/results.sha256"

var goldenMechanisms = []string{"base", "wbht", "snarf", "combined", "reusedist", "hybridui"}

// TestResultsGolden is the behaviour lock: it pins the SHA-256 of the
// marshalled Results JSON for every built-in workload under every
// write-back policy, plus one streamed sharded capture, the 64-core
// bigchip configuration and a small-cache run whose misses stall on a
// full write-back queue, and four runs with every observer attached.
// Any change to a simulated bit — an event reordered, a counter moved —
// changes a hash. A refactor that claims to be behaviour-preserving must
// leave this file untouched; a change that means to alter results
// regenerates it with
//
//	go test -run TestResultsGolden -update .
func TestResultsGolden(t *testing.T) {
	got := map[string]string{}
	// record hashes res's JSON followed by any observer output.
	record := func(name string, res *cmpcache.Results, observed ...[]byte) {
		t.Helper()
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		h.Write(b)
		for _, o := range observed {
			h.Write(o)
		}
		got[name] = hex.EncodeToString(h.Sum(nil))
	}

	for _, w := range cmpcache.Workloads() {
		tr, err := cmpcache.GenerateWorkloadSized(w, goldenRefs)
		if err != nil {
			t.Fatal(err)
		}
		src := memSource(t, tr)
		for _, m := range goldenMechanisms {
			res, err := cmpcache.Run(mechanismConfig(t, m), src, cmpcache.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			record(w+"/"+m, res)
		}
	}

	// The streamed path: a sharded on-disk capture replayed through
	// chunked per-thread iterators.
	tr, err := cmpcache.GenerateWorkloadSized("tp", goldenRefs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() + "/tp.cmps"
	if _, err := trace.WriteSharded(dir, tr, trace.ShardOptions{Shards: 3, BatchRecords: 256}); err != nil {
		t.Fatal(err)
	}
	src, err := cmpcache.OpenTraceDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cmpcache.Run(mechanismConfig(t, "wbht"), src, cmpcache.RunOptions{})
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	record("stream/tp/wbht", res)

	// bigchip: the 64-core scaling configuration (tp over 128 threads
	// and 32 L2 slices, all on the one slice wheel).
	p, err := cmpcache.WorkloadByName("tp")
	if err != nil {
		t.Fatal(err)
	}
	p.Threads = 128
	p.RefsPerThread = bigchipRefs
	big, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	bigCfg := cmpcache.DefaultConfig()
	bigCfg.Cores = 64
	if res, err = cmpcache.Run(bigCfg, memSource(t, big), cmpcache.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	record("bigchip/tp/base", res)

	// stall: the audit-soak campaign's cache corner (16 KB L2 slices,
	// 1 MB L3 slices, a 2-entry write-back queue). Misses block on the
	// full write-back queue and re-poll, a path the default caches never
	// reach at goldenRefs.
	trade2, err := cmpcache.GenerateWorkloadSized("trade2", goldenRefs)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = cmpcache.Run(stallConfig(t, "base"), memSource(t, trade2), cmpcache.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	record("stall/trade2/base", res)

	// observed: runs with every observer attached — a 997-cycle metrics
	// probe writing a JSONL event trace, a 1013-cycle latency collector
	// and a differential auditor. Each hash covers the Results JSON
	// (series and latency report included), the trace bytes and the
	// auditor's violations, so an event-order change that only an
	// observer sees still moves a hash.
	for _, o := range []struct {
		workload, mech string
		stall          bool
	}{
		{"tp", "combined", false},
		{"trade2", "base", true},
		{"notesbench", "base", true},
		{"tp", "wbht", true},
	} {
		name, cfg := "observed/"+o.workload+"/"+o.mech, mechanismConfig(t, o.mech)
		if o.stall {
			name, cfg = "observed/stall/"+o.workload+"/"+o.mech, stallConfig(t, o.mech)
		}
		tr, err := cmpcache.GenerateWorkloadSized(o.workload, goldenRefs)
		if err != nil {
			t.Fatal(err)
		}
		var events bytes.Buffer
		probe := cmpcache.NewMetricsProbe(cmpcache.MetricsConfig{Interval: 997})
		probe.SetTrace(metrics.NewTraceWriter(&events, metrics.JSONL))
		auditor := cmpcache.NewAuditor(cmpcache.AuditConfig{Differential: true})
		res, err := cmpcache.Run(cfg, memSource(t, tr), cmpcache.RunOptions{
			Probe:   probe,
			Auditor: auditor,
			Latency: cmpcache.NewLatencyCollector(cmpcache.LatencyConfig{Interval: 1013}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := probe.Trace().Close(); err != nil {
			t.Fatal(err)
		}
		violations, err := json.Marshal(auditor.Violations())
		if err != nil {
			t.Fatal(err)
		}
		record(name, res, events.Bytes(), violations)
	}

	if *update {
		writeGolden(t, got)
		return
	}
	want := readGolden(t)
	for name, h := range got {
		if want[name] != h {
			t.Errorf("%s: Results hash %s, golden %s", name, h, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: in %s but not run", name, goldenFile)
		}
	}
}

func mechanismConfig(t *testing.T, name string) cmpcache.Config {
	t.Helper()
	var m config.Mechanism
	if err := m.UnmarshalText([]byte(name)); err != nil {
		t.Fatal(err)
	}
	return cmpcache.DefaultConfig().WithMechanism(m)
}

// stallConfig is name's configuration on the audit-soak campaign's cache
// corner: 16 KB L2 slices, 1 MB L3 slices and a 2-entry write-back
// queue.
func stallConfig(t *testing.T, name string) cmpcache.Config {
	t.Helper()
	cfg := mechanismConfig(t, name)
	cfg.L2SliceKB = 16
	cfg.L3SliceMB = 1
	cfg.WBQueueEntries = 2
	return cfg
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", goldenFile, sc.Text())
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func writeGolden(t *testing.T, sums map[string]string) {
	t.Helper()
	names := make([]string, 0, len(sums))
	for name := range sums {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s\n", name, sums[name])
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
