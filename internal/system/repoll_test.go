package system_test

import (
	"math/rand"
	"strconv"
	"testing"

	"cmpcache/internal/audit/fuzz"
	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/l2"
	"cmpcache/internal/system"
	"cmpcache/internal/trace"
	"cmpcache/internal/workload"
)

// TestRepollShortPathExact checks that every re-poll that skips the
// probe would have stalled under the full check: the key absent from
// the tags, no MSHR and no live write-back entry for it, and the
// write-back queue or the MSHRs full. The check uses only
// non-perturbing queries. It runs over the inputs of the root package's
// TestResultsGolden (every workload under every policy, a streamed
// sharded capture, the 64-core bigchip, the small-cache stall run) and
// the configurations and workloads of the TestAuditSoak seeds.
func TestRepollShortPathExact(t *testing.T) {
	skipped, input := 0, ""
	check := func(c *l2.Cache, key uint64) {
		skipped++
		fail := func(why string) {
			t.Fatalf("%s: L2 %d skipped the probe of %#x, %s", input, c.ID(), key, why)
		}
		if st := c.Line(key).State(); st != coherence.Invalid {
			fail("which it holds " + st.String())
		}
		if c.MSHRFor(key) {
			fail("which has an MSHR")
		}
		c.ForEachWB(func(e l2.WBEntry) {
			if e.Key == key && !e.Cancelled {
				fail("which has a live write-back entry")
			}
		})
		if !c.WBQueueFull() && !c.MSHRFull() {
			fail("with room in the queue and the MSHRs")
		}
	}
	run := func(name string, s *system.System, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		input = name
		system.SetRepollCheck(s, check)
		s.Run()
	}

	mechanisms := []config.Mechanism{config.Baseline, config.WBHT, config.Snarf, config.Combined, config.ReuseDist, config.HybridUI}
	for _, w := range workload.Names() {
		src := generate(t, w, 0, 3000)
		for _, m := range mechanisms {
			s, err := system.NewStream(config.Default().WithMechanism(m), src)
			run(w+"/"+m.String(), s, err)
		}
	}

	dir := t.TempDir() + "/tp.cmps"
	if _, err := trace.WriteSharded(dir, generateTrace(t, "tp", 0, 3000), trace.ShardOptions{Shards: 3, BatchRecords: 256}); err != nil {
		t.Fatal(err)
	}
	src, err := trace.OpenSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := system.NewStream(config.Default().WithMechanism(config.WBHT), src)
	run("stream/tp/wbht", s, err)
	src.Close()

	big := config.Default()
	big.Cores = 64
	s, err = system.NewStream(big, generate(t, "tp", 128, 400))
	run("bigchip/tp/base", s, err)

	stall := config.Default()
	stall.L2SliceKB, stall.L3SliceMB, stall.WBQueueEntries = 16, 1, 2
	s, err = system.NewStream(stall, generate(t, "trade2", 0, 3000))
	run("stall/trade2/base", s, err)

	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := fuzz.RandomConfig(r)
		profile := fuzz.RandomProfile(r)
		tr, err := profile.Generate()
		if err != nil {
			t.Fatal(err)
		}
		src, err := trace.NewMemSource(tr)
		if err != nil {
			t.Fatal(err)
		}
		s, err := system.NewStream(cfg, src)
		run("soak seed "+strconv.FormatInt(seed, 10), s, err)
	}
	if skipped == 0 {
		t.Fatal("no re-poll skipped the probe: the check never ran")
	}
	t.Logf("%d re-polls skipped the probe, each checked", skipped)
}

// generateTrace synthesizes the named workload at refs references per
// thread, over threads threads when threads is positive.
func generateTrace(t *testing.T, name string, threads, refs int) *trace.Trace {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if threads > 0 {
		p.Threads = threads
	}
	p.RefsPerThread = refs
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// generate is generateTrace split into an in-memory source.
func generate(t *testing.T, name string, threads, refs int) trace.Source {
	t.Helper()
	src, err := trace.NewMemSource(generateTrace(t, name, threads, refs))
	if err != nil {
		t.Fatal(err)
	}
	return src
}
