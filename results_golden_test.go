package cmpcache_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"cmpcache"
	"cmpcache/internal/config"
	"cmpcache/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/results.sha256 from the current simulator")

// goldenRefs is the per-thread trace length of every golden run: long
// enough that each mechanism's tables, the retry switch and the snarf
// path see traffic, short enough that the matrix stays a tier-1 test.
const goldenRefs = 3000

// bigchipRefs is the per-thread trace length of the bigchip golden run,
// whose 128 threads make each reference cost more wall time; it keeps
// that entry's serial and 2-worker runs together under about a second.
const bigchipRefs = 400

const goldenFile = "testdata/results.sha256"

var goldenMechanisms = []string{"base", "wbht", "snarf", "combined", "reusedist", "hybridui"}

// TestResultsGolden is the behaviour lock: it pins the SHA-256 of the
// marshalled Results JSON for every built-in workload under every
// write-back policy, plus one streamed sharded capture and the 64-core
// bigchip configuration, each run serially and at 2 shard workers. Any change to a simulated bit — an event
// reordered, a counter moved — changes a hash. A refactor that claims to
// be behaviour-preserving must leave this file untouched; a change that
// means to alter results regenerates it with
//
//	go test -run TestResultsGolden -update .
func TestResultsGolden(t *testing.T) {
	got := map[string]string{}
	record := func(name string, res *cmpcache.Results, workers int) {
		t.Helper()
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		h := hex.EncodeToString(sum[:])
		if prev, ok := got[name]; ok && prev != h {
			t.Errorf("%s: %d shard workers hash %s, serial %s", name, workers, h, prev)
			return
		}
		got[name] = h
	}

	prev := runtime.GOMAXPROCS(2) // let the 2-worker runs start a real pool
	defer runtime.GOMAXPROCS(prev)

	for _, w := range cmpcache.Workloads() {
		tr, err := cmpcache.GenerateWorkloadSized(w, goldenRefs)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range goldenMechanisms {
			cfg := mechanismConfig(t, m)
			for _, workers := range []int{1, 2} {
				res, err := cmpcache.RunWith(cfg, tr, cmpcache.RunOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				record(w+"/"+m, res, workers)
			}
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
	for _, workers := range []int{1, 2} {
		src, err := cmpcache.OpenTraceDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cmpcache.RunSourceWith(mechanismConfig(t, "wbht"), src, cmpcache.RunOptions{Workers: workers})
		src.Close()
		if err != nil {
			t.Fatal(err)
		}
		record("stream/tp/wbht", res, workers)
	}

	// bigchip: the 64-core scaling configuration of BenchmarkBigChipShards
	// (tp over 128 threads and 32 L2 slices, so 33 event wheels).
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
	for _, workers := range []int{1, 2} {
		res, err := cmpcache.RunWith(bigCfg, big, cmpcache.RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		record("bigchip/tp/base", res, workers)
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
