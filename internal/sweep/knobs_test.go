package sweep

import (
	"encoding/json"
	"flag"
	"io"
	"testing"

	"cmpcache/internal/config"
)

// parseKnobs registers the knob flags on a fresh flag set, as cmpsweep
// does on its command line, and parses args.
func parseKnobs(t *testing.T, args ...string) config.Knobs {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	k := config.RegisterKnobs(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return *k
}

// over lays k over every job of a grid, as cmpsweep and the experiment
// harness do.
func over(k config.Knobs, jobs ...Job) []Job {
	for i := range jobs {
		jobs[i].Knobs = k.Over(jobs[i].Knobs)
	}
	return jobs
}

func TestOverrideJobsNilAndUnset(t *testing.T) {
	job := Job{Workload: "tp", Mechanism: config.WBHT, Knobs: config.Knobs{SnarfEntries: 512, NoSwitch: true}}
	if got := over(config.Knobs{}, job)[0]; got != job {
		t.Fatalf("zero knobs changed a job: %+v", got)
	}
	if got := over(parseKnobs(t), job)[0]; got != job {
		t.Fatalf("unset flags changed a job: %+v", got)
	}
}

// TestOverrideJobsExplicitZeroSentinel proves the sweep layer keeps an
// explicit `-wbht-entries 0` distinct from unset end to end: the job
// carries the negative sentinel, materializes to zero entries (which
// Validate rejects), and hashes to a different content key than the
// defaulted job — the result cache and the daemon can never alias the
// two spellings onto one result.
func TestOverrideJobsExplicitZeroSentinel(t *testing.T) {
	base := Job{Workload: "tp", Mechanism: config.WBHT}
	jobs := over(parseKnobs(t, "-wbht-entries", "0"), base)
	if jobs[0].WBHTEntries >= 0 {
		t.Fatalf("explicit zero became %d, want negative sentinel", jobs[0].WBHTEntries)
	}
	cfg := jobs[0].Config()
	if cfg.WBHT.Entries != 0 {
		t.Fatalf("sentinel materialized as %d entries, want 0", cfg.WBHT.Entries)
	}
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero-entry WBHT config passed Validate")
	}
	zeroKey, err := Key(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	defKey, err := Key(base)
	if err != nil {
		t.Fatal(err)
	}
	if zeroKey == defKey {
		t.Fatal("explicit-zero job aliases the defaulted job in the content-hash cache")
	}
}

func TestOverrideJobsAppliesPolicyKnobs(t *testing.T) {
	k := parseKnobs(t,
		"-reuse-entries", "1024",
		"-reuse-max-distance", "500",
		"-hybrid-entries", "2048",
		"-hybrid-threshold", "4",
		"-no-retry-switch",
		"-global-wbht",
	)
	jobs := over(k,
		Job{Workload: "tp", Mechanism: config.ReuseDist},
		Job{Workload: "tp", Mechanism: config.HybridUI},
	)
	rd := jobs[0].Config()
	if rd.ReuseDist.Entries != 1024 || rd.ReuseDist.MaxDistance != 500 {
		t.Fatalf("reusedist knobs = %d/%d", rd.ReuseDist.Entries, rd.ReuseDist.MaxDistance)
	}
	hy := jobs[1].Config()
	if hy.HybridUI.Entries != 2048 || hy.HybridUI.UpdateThreshold != 4 {
		t.Fatalf("hybridui knobs = %d/%d", hy.HybridUI.Entries, hy.HybridUI.UpdateThreshold)
	}
	if jobs[0].NoSwitch != true || jobs[0].GlobalWBHT != true {
		t.Fatal("bool overrides not applied")
	}
}

// TestKnobFlagPathsAgree drives every knob flag, unset and at 0, -3 and
// 5 (a boolean one unset, false and true), under every mechanism
// through the two paths a flag takes — applied onto a config as cmpsim
// does, and laid over a grid job and materialized as cmpsweep and
// cmpbench do — and requires the same config from both.
func TestKnobFlagPathsAgree(t *testing.T) {
	mechs, err := ParseMechanisms("all")
	if err != nil {
		t.Fatal(err)
	}
	var cases [][]string
	for _, f := range []string{"wbht-entries", "snarf-entries", "reuse-entries",
		"reuse-max-distance", "hybrid-entries", "hybrid-threshold"} {
		for _, v := range []string{"0", "-3", "5"} {
			cases = append(cases, []string{"-" + f, v})
		}
	}
	for _, f := range []string{"no-retry-switch", "global-wbht"} {
		cases = append(cases, []string{"-" + f + "=false"}, []string{"-" + f + "=true"})
	}
	cases = append(cases, nil)
	for _, args := range cases {
		k := parseKnobs(t, args...)
		for _, m := range mechs {
			want := config.Default().WithMechanism(m)
			k.Apply(&want)
			got := over(k, Job{Workload: "tp", Mechanism: m})[0].Config()
			if got != want {
				t.Errorf("%v %s: grid config differs from cmpsim's:\n got %+v\nwant %+v", args, m, got, want)
			}
		}
	}
	// Spot-check what the flags materialize to.
	for _, c := range []struct {
		args []string
		get  func(config.Config) uint64
		want uint64
	}{
		{[]string{"-snarf-entries", "5"}, func(c config.Config) uint64 { return uint64(c.Snarf.Entries) }, 5},
		{[]string{"-snarf-entries", "-3"}, func(c config.Config) uint64 { return uint64(c.Snarf.Entries) }, 0},
		{[]string{"-reuse-max-distance", "0"}, func(c config.Config) uint64 { return c.ReuseDist.MaxDistance }, 0},
		{nil, func(c config.Config) uint64 { return uint64(c.HybridUI.UpdateThreshold) }, 2},
	} {
		cfg := over(parseKnobs(t, c.args...), Job{Workload: "tp", Mechanism: config.Combined})[0].Config()
		if got := c.get(cfg); got != c.want {
			t.Errorf("%v: materialized %d, want %d", c.args, got, c.want)
		}
	}
}

// TestPolicyKeysNeverAlias pins the daemon/cache guarantee the policy
// plug-in architecture depends on: two policies with identical knob
// spellings are different simulations and must produce distinct
// content-hash cache keys.
func TestPolicyKeysNeverAlias(t *testing.T) {
	mechs := []config.Mechanism{config.Baseline, config.WBHT, config.Snarf,
		config.Combined, config.ReuseDist, config.HybridUI}
	seen := make(map[string]config.Mechanism, len(mechs))
	for _, m := range mechs {
		k, err := Key(Job{Workload: "tp", Mechanism: m})
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("mechanisms %v and %v share cache key %s", prev, m, k)
		}
		seen[k] = m
	}
}

// TestJobJSONSpellsKnobsFlat pins a job's JSON: the embedded knobs are
// spelled as the job's own fields, in their declared order, so job
// JSON, CSV and HTTP bodies keep their bytes. config.Knobs must
// therefore define no MarshalJSON or MarshalText, which the job would
// inherit.
func TestJobJSONSpellsKnobsFlat(t *testing.T) {
	j := Job{Workload: "tp", Mechanism: config.Combined, Outstanding: 4, RefsPerThread: 100,
		Knobs: config.Knobs{WBHTEntries: -1, SnarfEntries: 512, NoSwitch: true, LinesPerEntry: 2}}
	got, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"Workload":"tp","Mechanism":"combined","Outstanding":4,"TraceFile":"",` +
		`"WBHTEntries":-1,"SnarfEntries":512,"ReuseEntries":0,"ReuseMaxDist":0,"HybridEntries":0,` +
		`"HybridThreshold":0,"GlobalWBHT":false,"NoSwitch":true,"SnarfLRU":false,"InvalidOnly":false,` +
		`"LinesPerEntry":2,"HistoryRepl":false,"RefsPerThread":100}`
	if string(got) != want {
		t.Fatalf("job JSON\n got %s\nwant %s", got, want)
	}
	var back Job
	if err := json.Unmarshal(got, &back); err != nil || back != j {
		t.Fatalf("round trip = %+v, %v; want %+v", back, err, j)
	}
}
