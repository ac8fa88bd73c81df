package sweep

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cmpcache/internal/config"
)

func TestPlanExpandsGrid(t *testing.T) {
	p := Plan{
		Workloads:   []string{"tp", "trade2"},
		Mechanisms:  []config.Mechanism{config.WBHT},
		Outstanding: []int{1, 6},
		TableSizes:  []int{512, 2048},
	}
	jobs := p.Jobs()
	if len(jobs) != 2*2*2 {
		t.Fatalf("got %d jobs, want 8", len(jobs))
	}
	want := Job{Workload: "tp", Mechanism: config.WBHT, Outstanding: 1, Knobs: config.Knobs{WBHTEntries: 512}}
	if jobs[0] != want {
		t.Fatalf("jobs[0] = %+v, want %+v", jobs[0], want)
	}
}

func TestPlanBaselineIgnoresSizes(t *testing.T) {
	p := Plan{
		Workloads:   []string{"tp"},
		Mechanisms:  []config.Mechanism{config.Baseline, config.Snarf},
		Outstanding: []int{6},
		TableSizes:  []int{512, 2048, 8192},
	}
	jobs := p.Jobs()
	// 1 baseline + 3 snarf sizes: the size axis never duplicates the
	// (table-free) baseline configuration.
	if len(jobs) != 4 {
		t.Fatalf("got %d jobs, want 4", len(jobs))
	}
	base := 0
	for _, j := range jobs {
		if j.Mechanism == config.Baseline {
			base++
			if j.WBHTEntries != 0 || j.SnarfEntries != 0 {
				t.Fatalf("baseline job carries table sizes: %+v", j)
			}
		}
	}
	if base != 1 {
		t.Fatalf("got %d baseline jobs, want 1", base)
	}
}

func TestPlanCombinedSetsBothTables(t *testing.T) {
	p := Plan{
		Workloads:   []string{"tp"},
		Mechanisms:  []config.Mechanism{config.Combined},
		Outstanding: []int{6},
		TableSizes:  []int{1024},
	}
	jobs := p.Jobs()
	if len(jobs) != 1 || jobs[0].WBHTEntries != 1024 || jobs[0].SnarfEntries != 1024 {
		t.Fatalf("combined job = %+v", jobs)
	}
}

func TestPlanDefaults(t *testing.T) {
	jobs := Plan{}.Jobs()
	// all workloads x all mechanisms, one (default) outstanding level.
	if len(jobs) != 4*4 {
		t.Fatalf("got %d jobs, want 16", len(jobs))
	}
	if err := (Plan{Workloads: []string{"bogus"}}).Validate(); err == nil {
		t.Fatal("bogus workload validated")
	}
	if err := (Plan{Workloads: []string{"tp"}}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanValidateRefs rejects a negative workload length, naming it,
// instead of running the profile's default length; 0 selects that
// default.
func TestPlanValidateRefs(t *testing.T) {
	for _, refs := range []int{-1, -5} {
		want := fmt.Sprintf("RefsPerThread = %d,", refs)
		if err := (Plan{Workloads: []string{"tp"}, RefsPerThread: refs}).Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Validate = %v, want an error naming %q", err, want)
		}
	}
	for _, refs := range []int{0, 1} {
		if err := (Plan{Workloads: []string{"tp"}, RefsPerThread: refs}).Validate(); err != nil {
			t.Errorf("RefsPerThread = %d rejected: %v", refs, err)
		}
	}
}

func TestJobConfigMatchesOverrides(t *testing.T) {
	j := Job{Workload: "tp", Mechanism: config.Snarf, Outstanding: 3, Knobs: config.Knobs{SnarfEntries: 1024, SnarfLRU: true, InvalidOnly: true}}
	cfg := j.Config()
	if cfg.Mechanism != config.Snarf || cfg.MaxOutstanding != 3 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Snarf.Entries != 1024 || cfg.Snarf.InsertMRU || cfg.Snarf.VictimizeShared {
		t.Fatalf("snarf overrides not applied: %+v", cfg.Snarf)
	}
	cfg = Job{Workload: "tp", Mechanism: config.WBHT, Outstanding: 6, Knobs: config.Knobs{WBHTEntries: 2048, GlobalWBHT: true, NoSwitch: true, HistoryRepl: true}}.Config()
	if cfg.WBHT.Entries != 2048 || !cfg.WBHT.GlobalAllocate || cfg.WBHT.SwitchEnabled ||
		!cfg.WBHT.HistoryReplacement {
		t.Fatalf("wbht overrides not applied: %+v", cfg.WBHT)
	}
	// Combined halves both tables unless overridden.
	cfg = Job{Workload: "tp", Mechanism: config.Combined, Outstanding: 6}.Config()
	if cfg.WBHT.Entries != 16384 || cfg.Snarf.Entries != 16384 {
		t.Fatalf("combined defaults not halved: wbht=%d snarf=%d", cfg.WBHT.Entries, cfg.Snarf.Entries)
	}
}

func TestParseIntSpec(t *testing.T) {
	cases := []struct {
		spec string
		want []int
	}{
		{"6", []int{6}},
		{"1-6", []int{1, 2, 3, 4, 5, 6}},
		{"1,2,4", []int{1, 2, 4}},
		{"1-3,6", []int{1, 2, 3, 6}},
		{"512, 2048", []int{512, 2048}},
	}
	for _, c := range cases {
		got, err := ParseIntSpec(c.spec)
		if err != nil {
			t.Fatalf("%q: %v", c.spec, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%q: got %v, want %v", c.spec, got, c.want)
		}
	}
	for _, bad := range []string{"", "x", "3-1", "1-2-3", ","} {
		if _, err := ParseIntSpec(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestParseMechanisms(t *testing.T) {
	got, err := ParseMechanisms("base,wbht")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []config.Mechanism{config.Baseline, config.WBHT}) {
		t.Fatalf("got %v", got)
	}
	all, err := ParseMechanisms("all")
	if err != nil || len(all) != 6 {
		t.Fatalf("all: %v, %v", all, err)
	}
	paper, err := ParseMechanisms("paper")
	if err != nil || !reflect.DeepEqual(paper, []config.Mechanism{
		config.Baseline, config.WBHT, config.Snarf, config.Combined}) {
		t.Fatalf("paper: %v, %v", paper, err)
	}
	if _, err := ParseMechanisms("warp-drive"); err == nil {
		t.Fatal("unknown mechanism accepted")
	}
}

func TestParseWorkloads(t *testing.T) {
	got, err := ParseWorkloads("tp,trade2")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"tp", "trade2"}) {
		t.Fatalf("got %v", got)
	}
	all, err := ParseWorkloads("all")
	if err != nil || len(all) != 4 {
		t.Fatalf("all: %v, %v", all, err)
	}
	if _, err := ParseWorkloads("quake3"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
