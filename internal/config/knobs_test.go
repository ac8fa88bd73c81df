package config

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// parseKnobs registers the knob flags on a fresh flag set — exactly
// what each command-line tool does on flag.CommandLine — and parses
// args.
func parseKnobs(t *testing.T, args ...string) *Knobs {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	k := RegisterKnobs(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestOverridesUnsetLeavesConfigUntouched(t *testing.T) {
	k := parseKnobs(t)
	if *k != (Knobs{}) {
		t.Fatalf("no flags parsed, knobs = %+v", *k)
	}
	cfg := Default().WithMechanism(Combined)
	want := cfg
	k.Apply(&cfg)
	if cfg != want {
		t.Fatalf("Apply with no flags changed the config:\n got %+v\nwant %+v", cfg, want)
	}
}

// TestOverridesExplicitZeroDistinguished: an explicit `-wbht-entries 0`
// must materialize as zero entries and fail Validate, not silently fall
// back to the paper default. cmpsim, cmpsweep and cmpbench all register
// the same flags, so they share these semantics.
func TestOverridesExplicitZeroDistinguished(t *testing.T) {
	for _, tool := range []string{"cmpsim", "cmpsweep", "cmpbench"} {
		t.Run(tool, func(t *testing.T) {
			unset := parseKnobs(t)
			cfg := Default().WithMechanism(WBHT)
			unset.Apply(&cfg)
			if cfg.WBHT.Entries != DefaultWBHT().Entries {
				t.Fatalf("unset flag changed entries to %d", cfg.WBHT.Entries)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("default config invalid: %v", err)
			}

			zero := parseKnobs(t, "-wbht-entries", "0")
			if zero.WBHTEntries != -1 {
				t.Fatalf("explicit zero recorded as %d, want the -1 sentinel", zero.WBHTEntries)
			}
			cfg = Default().WithMechanism(WBHT)
			zero.Apply(&cfg)
			if cfg.WBHT.Entries != 0 {
				t.Fatalf("explicit zero materialized as %d, want 0", cfg.WBHT.Entries)
			}
			if err := cfg.Validate(); err == nil {
				t.Fatal("explicit -wbht-entries 0 passed Validate; it must be rejected, not defaulted")
			}
		})
	}
}

// TestExplicitStandalone is the regression test for tracegen's
// zero-sentinel flags: the standalone Explicit helper must report a flag
// as given exactly when it appeared on the command line, including when
// the given value equals the default — `-seed 0` and `-refs 0` are real
// requests, not "unset".
func TestExplicitStandalone(t *testing.T) {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Int("refs", 0, "")
	fs.Uint64("seed", 0, "")
	if err := fs.Parse([]string{"-refs", "0"}); err != nil {
		t.Fatal(err)
	}
	if !Explicit(fs, "refs") {
		t.Fatal("Explicit(refs) = false after -refs 0 was parsed")
	}
	if Explicit(fs, "seed") {
		t.Fatal("Explicit(seed) = true for a flag never given")
	}
	if Explicit(fs, "no-such-flag") {
		t.Fatal("Explicit on an unregistered name = true")
	}
}

func TestOverridesApplyEveryKnob(t *testing.T) {
	k := parseKnobs(t,
		"-wbht-entries", "1024",
		"-snarf-entries", "2048",
		"-reuse-entries", "4096",
		"-reuse-max-distance", "100",
		"-hybrid-entries", "8192",
		"-hybrid-threshold", "3",
		"-no-retry-switch",
		"-global-wbht",
	)
	cfg := Default()
	k.Apply(&cfg)
	switch {
	case cfg.WBHT.Entries != 1024:
		t.Fatalf("WBHT.Entries = %d", cfg.WBHT.Entries)
	case cfg.Snarf.Entries != 2048:
		t.Fatalf("Snarf.Entries = %d", cfg.Snarf.Entries)
	case cfg.ReuseDist.Entries != 4096:
		t.Fatalf("ReuseDist.Entries = %d", cfg.ReuseDist.Entries)
	case cfg.ReuseDist.MaxDistance != 100:
		t.Fatalf("ReuseDist.MaxDistance = %d", cfg.ReuseDist.MaxDistance)
	case cfg.HybridUI.Entries != 8192:
		t.Fatalf("HybridUI.Entries = %d", cfg.HybridUI.Entries)
	case cfg.HybridUI.UpdateThreshold != 3:
		t.Fatalf("HybridUI.UpdateThreshold = %d", cfg.HybridUI.UpdateThreshold)
	case cfg.WBHT.SwitchEnabled:
		t.Fatal("retry switch still enabled")
	case !cfg.WBHT.GlobalAllocate:
		t.Fatal("global WBHT not applied")
	}
}

func TestOverridesNegativeMaxDistanceInvalid(t *testing.T) {
	k := parseKnobs(t, "-reuse-max-distance", "-5")
	cfg := Default().WithMechanism(ReuseDist)
	k.Apply(&cfg)
	if cfg.ReuseDist.MaxDistance != 0 {
		t.Fatalf("negative distance materialized as %d, want 0", cfg.ReuseDist.MaxDistance)
	}
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative -reuse-max-distance passed Validate")
	}
}

// TestKnobFlagsRecordSentinel pins what a given integer flag records: a
// positive value as itself, 0 and every negative value as the -1
// sentinel — so `-wbht-entries -5` applies as 0, as a grid's -1 does —
// and a bad value fails the parse naming the flag.
func TestKnobFlagsRecordSentinel(t *testing.T) {
	for _, c := range []struct {
		arg  string
		want int
	}{{"5", 5}, {"0x10", 16}, {"0", -1}, {"-1", -1}, {"-5", -1}} {
		if got := parseKnobs(t, "-hybrid-threshold", c.arg).HybridThreshold; got != c.want {
			t.Errorf("-hybrid-threshold %s recorded %d, want %d", c.arg, got, c.want)
		}
	}
	cfg := Default()
	parseKnobs(t, "-wbht-entries", "-5").Apply(&cfg)
	if cfg.WBHT.Entries != 0 {
		t.Fatalf("-wbht-entries -5 applied as %d, want 0", cfg.WBHT.Entries)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	RegisterKnobs(fs)
	err := fs.Parse([]string{"-snarf-entries", "many"})
	if err == nil || !strings.Contains(err.Error(), "-snarf-entries") {
		t.Fatalf("bad value: err = %v, want one naming -snarf-entries", err)
	}
}

// TestKnobFalseBoolSetsNothing: a boolean knob given as false is the
// same as not given, so it cannot undo a -config file or a job that set
// the variant.
func TestKnobFalseBoolSetsNothing(t *testing.T) {
	k := parseKnobs(t, "-no-retry-switch=false", "-global-wbht=false")
	if *k != (Knobs{}) {
		t.Fatalf("false bool flags set knobs %+v", *k)
	}
	cfg := Default()
	cfg.WBHT.SwitchEnabled = false
	cfg.WBHT.GlobalAllocate = true
	want := cfg
	k.Apply(&cfg)
	if cfg != want {
		t.Fatalf("false bool flags changed the config:\n got %+v\nwant %+v", cfg.WBHT, want.WBHT)
	}
	job := Knobs{NoSwitch: true, GlobalWBHT: true}
	if got := k.Over(job); got != job {
		t.Fatalf("false bool flags changed a job's knobs to %+v", got)
	}
}

// TestKnobsOverAndString: Over replaces exactly the knobs its receiver
// sets, and String names each set knob in a fixed order.
func TestKnobsOverAndString(t *testing.T) {
	base := Knobs{WBHTEntries: 512, SnarfEntries: 1024, NoSwitch: true, LinesPerEntry: 4}
	got := Knobs{WBHTEntries: -1, GlobalWBHT: true}.Over(base)
	want := Knobs{WBHTEntries: -1, SnarfEntries: 1024, NoSwitch: true, GlobalWBHT: true, LinesPerEntry: 4}
	if got != want {
		t.Fatalf("Over = %+v, want %+v", got, want)
	}
	if (Knobs{}).Over(base) != base {
		t.Fatal("zero knobs changed the base")
	}
	if s := got.String(); s != "wbht=0 snarf=1024 global no-switch coarse=4" {
		t.Fatalf("String = %q", s)
	}
	if s := (Knobs{}).String(); s != "" {
		t.Fatalf("zero knobs render %q, want empty", s)
	}
}
