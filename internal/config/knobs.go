package config

import (
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// Knobs are the write-back policy knobs that a job, a grid or a command
// line sets on top of a mechanism's defaults: the WBHT and snarf-table
// sizes (Figures 4 and 6), the retry-rate switch (Section 2.2), global
// WBHT allocation (Figure 3), Section 7's coarse entries and history
// replacement, the snarf ablations, and the plug-in policies' tables and
// thresholds. The zero value sets no knob.
//
// An integer knob follows a negative-sentinel convention: 0 leaves the
// mechanism's default, a positive value overrides it, and any negative
// value means "explicitly zero" — it applies as 0, which fails Validate
// for the mechanisms that need the knob. The sentinel keeps an explicit
// zero distinct from unset all the way into the sweep layer's
// content-hash cache key. LinesPerEntry overrides only above 1 (0 or 1
// is the per-line table). A boolean knob is set when true.
//
// Knobs is comparable and is embedded in sweep.Job, whose JSON, CSV and
// HTTP bodies spell its fields as the job's own; it must define no
// MarshalJSON or MarshalText, which the job would inherit.
type Knobs struct {
	// Table sizes, in entries.
	WBHTEntries  int
	SnarfEntries int

	// Plug-in policy knobs.
	ReuseEntries    int // reuse-distance sketch entries per L2
	ReuseMaxDist    int // reuse-distance abort threshold, in misses
	HybridEntries   int // hybrid update/invalidate score-table entries
	HybridThreshold int // peer-read score for update-mode stores

	// Policy variants.
	GlobalWBHT    bool // Figure 3: allocate WBHT entries in all L2s
	NoSwitch      bool // disable the retry-rate on/off switch
	SnarfLRU      bool // insert snarfed lines at LRU instead of MRU
	InvalidOnly   bool // snarf only into Invalid ways
	LinesPerEntry int  // WBHT coarse entries (0 or 1 = per-line)
	HistoryRepl   bool // WBHT-informed L2 replacement (Section 7)
}

// Apply sets on cfg every knob k sets and leaves the rest of cfg as it
// is, so an explicit zero reaches Validate as zero instead of being
// mistaken for "use the default".
func (k Knobs) Apply(cfg *Config) {
	for _, f := range [...]struct {
		dst *int
		v   int
	}{
		{&cfg.WBHT.Entries, k.WBHTEntries},
		{&cfg.Snarf.Entries, k.SnarfEntries},
		{&cfg.ReuseDist.Entries, k.ReuseEntries},
		{&cfg.HybridUI.Entries, k.HybridEntries},
		{&cfg.HybridUI.UpdateThreshold, k.HybridThreshold},
	} {
		if f.v != 0 {
			*f.dst = max(f.v, 0)
		}
	}
	if k.ReuseMaxDist != 0 {
		cfg.ReuseDist.MaxDistance = uint64(max(k.ReuseMaxDist, 0))
	}
	if k.GlobalWBHT {
		cfg.WBHT.GlobalAllocate = true
	}
	if k.NoSwitch {
		cfg.WBHT.SwitchEnabled = false
	}
	if k.SnarfLRU {
		cfg.Snarf.InsertMRU = false
	}
	if k.InvalidOnly {
		cfg.Snarf.VictimizeShared = false
	}
	if k.LinesPerEntry > 1 {
		cfg.WBHT.LinesPerEntry = k.LinesPerEntry
	}
	if k.HistoryRepl {
		cfg.WBHT.HistoryReplacement = true
	}
}

// Over returns base with every knob k sets replaced by k's value: k laid
// over base, as command-line knobs are laid over each job of a grid.
func (k Knobs) Over(base Knobs) Knobs {
	for _, f := range [...]struct {
		dst *int
		v   int
	}{
		{&base.WBHTEntries, k.WBHTEntries},
		{&base.SnarfEntries, k.SnarfEntries},
		{&base.ReuseEntries, k.ReuseEntries},
		{&base.ReuseMaxDist, k.ReuseMaxDist},
		{&base.HybridEntries, k.HybridEntries},
		{&base.HybridThreshold, k.HybridThreshold},
		{&base.LinesPerEntry, k.LinesPerEntry},
	} {
		if f.v != 0 {
			*f.dst = f.v
		}
	}
	base.GlobalWBHT = base.GlobalWBHT || k.GlobalWBHT
	base.NoSwitch = base.NoSwitch || k.NoSwitch
	base.SnarfLRU = base.SnarfLRU || k.SnarfLRU
	base.InvalidOnly = base.InvalidOnly || k.InvalidOnly
	base.HistoryRepl = base.HistoryRepl || k.HistoryRepl
	return base
}

// String renders the knobs k sets, space-separated in a fixed order
// ("wbht=512 no-switch"), or "" when it sets none. An explicitly zero
// integer knob renders as 0.
func (k Knobs) String() string {
	var parts []string
	for _, v := range [...]struct {
		val  int
		name string
	}{
		{k.WBHTEntries, "wbht"},
		{k.SnarfEntries, "snarf"},
		{k.ReuseEntries, "reuse"},
		{k.ReuseMaxDist, "maxdist"},
		{k.HybridEntries, "hybrid"},
		{k.HybridThreshold, "thresh"},
	} {
		if v.val != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", v.name, max(v.val, 0)))
		}
	}
	for _, v := range [...]struct {
		on   bool
		name string
	}{
		{k.GlobalWBHT, "global"},
		{k.NoSwitch, "no-switch"},
		{k.SnarfLRU, "lru-insert"},
		{k.InvalidOnly, "invalid-only"},
		{k.HistoryRepl, "hist-repl"},
	} {
		if v.on {
			parts = append(parts, v.name)
		}
	}
	if k.LinesPerEntry > 1 {
		parts = append(parts, fmt.Sprintf("coarse=%d", k.LinesPerEntry))
	}
	return strings.Join(parts, " ")
}

// RegisterKnobs registers the policy knob flags that cmpsim, cmpsweep
// and cmpbench accept on fs and returns the Knobs they fill in. A flag
// that is not given leaves its knob unset; a given integer flag records
// its value, with 0 or a negative value recorded as -1 (explicitly
// zero).
func RegisterKnobs(fs *flag.FlagSet) *Knobs {
	k := new(Knobs)
	for _, f := range []struct {
		name, usage string
		dst         *int
	}{
		{"wbht-entries", "override WBHT `entries` (unset = paper default 32768, halved for combined)", &k.WBHTEntries},
		{"snarf-entries", "override snarf table `entries` (unset = paper default 32768, halved for combined)", &k.SnarfEntries},
		{"reuse-entries", "override reuse-distance sketch `entries` per L2 (unset = default 32768)", &k.ReuseEntries},
		{"reuse-max-distance", "override the reuse-distance abort threshold, in `misses` of the evicting L2 (unset = default 32768)", &k.ReuseMaxDist},
		{"hybrid-entries", "override the hybrid update/invalidate score-table `entries` (unset = default 32768)", &k.HybridEntries},
		{"hybrid-threshold", "override the peer-read `score` at which stores switch from invalidate to update (unset = default 2)", &k.HybridThreshold},
	} {
		dst := f.dst
		fs.Func(f.name, f.usage, func(s string) error {
			n, err := strconv.ParseInt(s, 0, strconv.IntSize)
			if err != nil {
				return errors.Unwrap(err)
			}
			*dst = int(n)
			if n <= 0 {
				*dst = -1
			}
			return nil
		})
	}
	fs.BoolVar(&k.NoSwitch, "no-retry-switch", false, "disable the WBHT retry-rate on/off switch")
	fs.BoolVar(&k.GlobalWBHT, "global-wbht", false, "allocate WBHT entries in all L2s (Figure 3 variant)")
	return k
}

// Explicit reports whether the named flag was given on fs's command
// line, regardless of its value — the test a flag needs when its zero
// value is a real request (tracegen's `-seed 0`) or when it overrides
// a -config file only if given. Valid only after fs parsed.
func Explicit(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
