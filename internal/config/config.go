// Package config defines every architectural and policy parameter of
// the simulated chip multiprocessor. Default() reproduces Table 3 of the
// paper exactly; tests assert that the contention-free latency
// decomposition sums to the paper's end-to-end numbers.
package config

import (
	"fmt"
	"math/bits"

	"cmpcache/internal/sim"
)

// Cycles counts core clock cycles. It aliases sim.Time so configuration
// latencies flow directly into the event engine and resource models.
type Cycles = sim.Time

// Mechanism selects which of the paper's write-back management
// mechanisms are active.
type Mechanism int

const (
	// Baseline: every replaced L2 line (clean and dirty) is written back
	// toward the L3; the L3 squashes clean write backs it already holds.
	Baseline Mechanism = iota
	// WBHT enables the per-L2 Write Back History Table that aborts clean
	// write backs predicted to already reside in the L3 (Section 2).
	WBHT
	// Snarf enables L2-to-L2 write-back absorption guided by the reuse
	// table (Section 3).
	Snarf
	// Combined enables both mechanisms, by default with half-sized
	// tables as in Section 5.3.
	Combined
	// ReuseDist replaces the WBHT with a per-L2 reuse-distance sketch
	// (after arXiv 2105.14442): clean copy-backs are aborted when the
	// line's predicted eviction-to-reuse distance exceeds the L3's
	// useful lifetime, rather than when the L3 is predicted to already
	// hold the line.
	ReuseDist
	// HybridUI enables the hybrid update/invalidate coherence variant
	// (after arXiv 1502.00101): stores to lines whose producer-consumer
	// score crosses a threshold push updates to the known sharers
	// instead of invalidating them, falling back to invalidation for
	// everything else.
	HybridUI
)

// String returns the mechanism's name as used in reports.
func (m Mechanism) String() string {
	switch m {
	case Baseline:
		return "base"
	case WBHT:
		return "wbht"
	case Snarf:
		return "snarf"
	case Combined:
		return "combined"
	case ReuseDist:
		return "reusedist"
	case HybridUI:
		return "hybridui"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// WBHTConfig parameterizes the Write Back History Table (Section 2).
type WBHTConfig struct {
	Entries int // total tag entries (paper default 32K)
	Assoc   int // set associativity (paper default 16)

	// GlobalAllocate makes every L2 allocate an entry when the combined
	// snoop response reveals an L3 hit, not just the writing L2
	// (the Figure 3 variant).
	GlobalAllocate bool

	// The retry-rate on/off switch (Section 2.2): the table is consulted
	// only while the ring saw at least RetryThreshold retries during the
	// previous RetryWindow cycles. The paper uses 2,000 per 1M cycles; we
	// keep the same rate over a shorter window so short simulations adapt
	// at the same speed relative to their length.
	SwitchEnabled  bool
	RetryWindow    Cycles
	RetryThreshold uint64

	// LinesPerEntry implements the paper's Section 7 extension: "allow
	// each entry in the table to serve multiple cache lines, reducing
	// the size of each entry and providing greater coverage at the risk
	// of increased prediction errors." Must be a power of two; 1 (the
	// default) is the paper's per-line table.
	LinesPerEntry int

	// HistoryReplacement implements the paper's other Section 7
	// direction: "new replacement algorithms that take into account
	// information contained in the history tables." When enabled, the
	// L2 victim search prefers — among the least recently used ways — a
	// clean line whose tag hits in the WBHT: such lines are already in
	// the L3, so evicting them costs neither a write back nor (on
	// re-reference) a memory access.
	HistoryReplacement bool
}

// SnarfConfig parameterizes L2-to-L2 write-back snarfing (Section 3).
type SnarfConfig struct {
	Entries int // reuse-table tag entries (paper default 32K)
	Assoc   int

	// VictimizeShared lets a recipient L2 evict a Shared-state line when
	// no Invalid line exists in the target set (the paper's policy).
	// Disabling it restricts snarfing to invalid ways (ablation).
	VictimizeShared bool

	// InsertMRU places snarfed lines at the MRU position of the recipient
	// set, maximizing their chance of surviving until reuse (the paper's
	// "managing the LRU information at the recipient cache"). Disabling
	// inserts at LRU (ablation).
	InsertMRU bool
}

// ReuseDistConfig parameterizes the reuse-distance clean copy-back
// policy (after arXiv 2105.14442). Each L2 keeps a sketch of its own
// evicted tags; a tag's eviction-to-reuse distance is the number of L2
// misses between evicting it and missing on it again, smoothed by an
// exponentially weighted moving average. A clean copy-back is aborted
// when the predicted distance exceeds MaxDistance: the line would age
// out of the L3 before its next use, so shipping it there buys nothing.
type ReuseDistConfig struct {
	Entries int // sketch tag entries per L2
	Assoc   int

	// MaxDistance is the abort threshold, in misses of the evicting L2.
	// Lines never seen before (no trained distance) are copied back,
	// matching the baseline's conservative behavior.
	MaxDistance uint64

	// EWMAShift sets the smoothing weight: each new distance sample
	// contributes 1/2^EWMAShift of the running average.
	EWMAShift uint
}

// HybridUIConfig parameterizes the hybrid update/invalidate coherence
// variant (after arXiv 1502.00101). A chip-level score table counts the
// peer read fills each line attracts between consecutive writes; a
// store to a line whose count has reached UpdateThreshold pushes the
// new data to the surviving sharers (they stay Shared, the writer takes
// dirty ownership as Tagged) instead of invalidating them. Lines below
// the threshold invalidate as usual.
type HybridUIConfig struct {
	Entries int // score-table tag entries (chip-wide)
	Assoc   int

	// UpdateThreshold is the number of peer read fills between writes
	// needed before stores switch from invalidate to update.
	UpdateThreshold int
}

// Config describes the complete simulated system.
type Config struct {
	// --- Figure 1 organization ---
	Cores          int // 8
	ThreadsPerCore int // 2-way SMT
	CoresPerL2     int // 2 (each pair of cores shares an L2)

	// --- Table 3 cache geometry ---
	LineBytes int // 128
	L2Slices  int // 4 slices per L2 cache
	L2SliceKB int // 512 KB per slice
	L2Assoc   int // 8
	L3Slices  int // 4
	L3SliceMB int // 4 MB per slice
	L3Assoc   int // 16
	L1KB      int // per-core L1 D (Harvard; used only by the trace filter)
	L1Assoc   int
	L1IKB     int // per-core L1 I
	L1IAssoc  int

	// --- Table 3 contention-free latencies, decomposed. All end-to-end
	// figures are from the core. The decomposition is additive:
	//   L2 hit            = CoreToL2 + L2Access                  = 20
	//   combined response = L2 hit + AddressPhase                = 44
	//   L2-to-L2 transfer = combined + PeerSourceLatency         = 77
	//   L3 hit            = combined + L3SourceLatency           = 167
	//   memory            = combined + MemSourceLatency          = 431
	CoreToL2          Cycles
	L2Access          Cycles
	AddressPhase      Cycles
	PeerSourceLatency Cycles
	L3SourceLatency   Cycles
	MemSourceLatency  Cycles

	// --- Occupancies (contention model). The ring runs at 1:2 core
	// speed and the data ring is 32 B wide, so a 128 B line takes 4 beats
	// x 2 core cycles = 8 core cycles of data-ring occupancy, and the
	// address ring accepts one transaction per 2 core cycles.
	AddrRingOccupancy Cycles
	DataRingOccupancy Cycles
	L2PortOccupancy   Cycles // tag/data port busy time per access or snoop
	L3SliceOccupancy  Cycles // off-chip array busy time per access
	MemBankOccupancy  Cycles // DRAM bank busy time per access

	// --- Queues and structural limits ---
	L3QueueEntries  int // L3 incoming queue; full => retry (Section 2)
	MemQueueEntries int
	MemBanks        int
	WBQueueEntries  int // per-L2 write-back queue (paper: 8)
	MSHRsPerL2      int
	RetryBackoff    Cycles // wait before re-arbitrating a retried txn

	// MaxOutstanding is the per-thread limit on simultaneously
	// outstanding read and write misses — the memory-pressure knob swept
	// across 1..6 in every figure.
	MaxOutstanding int

	Mechanism Mechanism
	WBHT      WBHTConfig
	Snarf     SnarfConfig
	ReuseDist ReuseDistConfig
	HybridUI  HybridUIConfig
}

// Default returns the paper's baseline system (Table 3) with the
// baseline write-back policy and six outstanding misses per thread.
func Default() Config {
	return Config{
		Cores:          8,
		ThreadsPerCore: 2,
		CoresPerL2:     2,

		LineBytes: 128,
		L2Slices:  4,
		L2SliceKB: 512,
		L2Assoc:   8,
		L3Slices:  4,
		L3SliceMB: 4,
		L3Assoc:   16,
		L1KB:      32,
		L1Assoc:   4,
		L1IKB:     64,
		L1IAssoc:  2,

		CoreToL2:          4,
		L2Access:          16,
		AddressPhase:      24,
		PeerSourceLatency: 33,
		L3SourceLatency:   123,
		MemSourceLatency:  387,

		AddrRingOccupancy: 2,
		DataRingOccupancy: 8,
		L2PortOccupancy:   2,
		L3SliceOccupancy:  20,
		MemBankOccupancy:  40,

		L3QueueEntries:  16,
		MemQueueEntries: 32,
		MemBanks:        12,
		WBQueueEntries:  8,
		MSHRsPerL2:      32,
		RetryBackoff:    64,

		MaxOutstanding: 6,

		Mechanism: Baseline,
		WBHT:      DefaultWBHT(),
		Snarf:     DefaultSnarf(),
		ReuseDist: DefaultReuseDist(),
		HybridUI:  DefaultHybridUI(),
	}
}

// DefaultWBHT returns the paper's WBHT parameters: 32K entries, 16-way,
// local allocation, retry switch at the paper's rate (2,000 retries per
// 1M cycles, expressed over a 100K-cycle window).
func DefaultWBHT() WBHTConfig {
	return WBHTConfig{
		Entries:        32768,
		Assoc:          16,
		GlobalAllocate: false,
		SwitchEnabled:  true,
		RetryWindow:    25_000,
		RetryThreshold: 50,
		LinesPerEntry:  1,
	}
}

// DefaultSnarf returns the paper's snarf-table parameters: 32K entries,
// 16-way, Shared-state victimization allowed, MRU insertion.
func DefaultSnarf() SnarfConfig {
	return SnarfConfig{
		Entries:         32768,
		Assoc:           16,
		VictimizeShared: true,
		InsertMRU:       true,
	}
}

// DefaultReuseDist sizes the sketch like the WBHT (32K entries, 16-way)
// so the two clean-copy-back policies compete at equal hardware cost.
// MaxDistance defaults to the per-L2 share of the L3 in lines: past
// that many misses, the copied-back line has likely been victimized.
func DefaultReuseDist() ReuseDistConfig {
	return ReuseDistConfig{
		Entries:     32768,
		Assoc:       16,
		MaxDistance: 32768,
		EWMAShift:   2,
	}
}

// DefaultHybridUI matches the mechanism tables' sizing (32K entries,
// 16-way) with the two-reader threshold of the hybrid protocol's
// write-run heuristic.
func DefaultHybridUI() HybridUIConfig {
	return HybridUIConfig{
		Entries:         32768,
		Assoc:           16,
		UpdateThreshold: 2,
	}
}

// WithMechanism returns a copy of c running the given mechanism. For
// Combined, both tables are halved to 16K entries to preserve total
// capacity, exactly as in Section 5.3.
func (c Config) WithMechanism(m Mechanism) Config {
	c.Mechanism = m
	if m == Combined {
		c.WBHT.Entries = 16384
		c.Snarf.Entries = 16384
	}
	return c
}

// Threads returns the total hardware thread count.
func (c Config) Threads() int { return c.Cores * c.ThreadsPerCore }

// NumL2 returns the number of L2 caches on the chip.
func (c Config) NumL2() int { return c.Cores / c.CoresPerL2 }

// ThreadsPerL2 returns how many hardware threads feed one L2 cache
// (four in the paper's system).
func (c Config) ThreadsPerL2() int { return c.CoresPerL2 * c.ThreadsPerCore }

// L2Bytes returns the capacity of one L2 cache (all slices).
func (c Config) L2Bytes() int { return c.L2Slices * c.L2SliceKB * 1024 }

// L3Bytes returns the capacity of the L3 cache (all slices).
func (c Config) L3Bytes() int { return c.L3Slices * c.L3SliceMB * 1024 * 1024 }

// L2Lines returns the number of lines in one L2 cache.
func (c Config) L2Lines() int { return c.L2Bytes() / c.LineBytes }

// L3Lines returns the number of lines in the L3 cache.
func (c Config) L3Lines() int { return c.L3Bytes() / c.LineBytes }

// L2HitLatency returns the end-to-end L2 hit latency (Table 3: 20).
func (c Config) L2HitLatency() Cycles { return c.CoreToL2 + c.L2Access }

// CombinedResponseLatency returns the contention-free time from issue to
// the combined snoop response.
func (c Config) CombinedResponseLatency() Cycles {
	return c.L2HitLatency() + c.AddressPhase
}

// L2ToL2Latency returns the end-to-end L2-to-L2 transfer latency
// (Table 3: 77).
func (c Config) L2ToL2Latency() Cycles {
	return c.CombinedResponseLatency() + c.PeerSourceLatency
}

// L3HitLatency returns the end-to-end L3 hit latency (Table 3: 167).
func (c Config) L3HitLatency() Cycles {
	return c.CombinedResponseLatency() + c.L3SourceLatency
}

// MemLatency returns the end-to-end memory latency (Table 3: 431).
func (c Config) MemLatency() Cycles {
	return c.CombinedResponseLatency() + c.MemSourceLatency
}

// Validate reports the first structural inconsistency in the
// configuration, or nil when it is usable.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("config: Cores = %d, must be positive", c.Cores)
	case c.ThreadsPerCore <= 0:
		return fmt.Errorf("config: ThreadsPerCore = %d, must be positive", c.ThreadsPerCore)
	case c.CoresPerL2 <= 0 || c.Cores%c.CoresPerL2 != 0:
		return fmt.Errorf("config: CoresPerL2 = %d must evenly divide Cores = %d", c.CoresPerL2, c.Cores)
	case !positivePow2(c.LineBytes):
		return fmt.Errorf("config: LineBytes = %d, must be a positive power of two", c.LineBytes)
	case !positivePow2(c.L2Slices):
		return fmt.Errorf("config: L2Slices = %d, must be a positive power of two", c.L2Slices)
	case !positivePow2(c.L3Slices):
		return fmt.Errorf("config: L3Slices = %d, must be a positive power of two", c.L3Slices)
	case c.L2SliceKB <= 0:
		return fmt.Errorf("config: L2SliceKB = %d, must be positive", c.L2SliceKB)
	case c.L3SliceMB <= 0:
		return fmt.Errorf("config: L3SliceMB = %d, must be positive", c.L3SliceMB)
	case c.L2Assoc <= 0 || c.L3Assoc <= 0:
		return fmt.Errorf("config: associativities must be positive")
	case c.L2Lines()/c.L2Slices%c.L2Assoc != 0:
		return fmt.Errorf("config: L2 slice lines (%d) not divisible by associativity %d", c.L2Lines()/c.L2Slices, c.L2Assoc)
	case c.L3Lines()/c.L3Slices%c.L3Assoc != 0:
		return fmt.Errorf("config: L3 slice lines (%d) not divisible by associativity %d", c.L3Lines()/c.L3Slices, c.L3Assoc)
	case !positivePow2(c.L2Lines() / c.L2Assoc):
		return fmt.Errorf("config: L2SliceKB = %d, L2 sets = %d, must be a positive power of two", c.L2SliceKB, c.L2Lines()/c.L2Assoc)
	case !positivePow2(c.L3Lines() / c.L3Assoc):
		return fmt.Errorf("config: L3SliceMB = %d, L3 sets = %d, must be a positive power of two", c.L3SliceMB, c.L3Lines()/c.L3Assoc)
	case c.MaxOutstanding <= 0:
		return fmt.Errorf("config: MaxOutstanding = %d, must be positive", c.MaxOutstanding)
	case c.WBQueueEntries <= 0 || c.L3QueueEntries <= 0 || c.MemQueueEntries <= 0:
		return fmt.Errorf("config: queue capacities must be positive")
	case c.MSHRsPerL2 < c.ThreadsPerL2()*c.MaxOutstanding:
		return fmt.Errorf("config: MSHRsPerL2 = %d cannot cover %d threads x %d outstanding",
			c.MSHRsPerL2, c.ThreadsPerL2(), c.MaxOutstanding)
	case c.MemBanks <= 0:
		return fmt.Errorf("config: MemBanks = %d, must be positive", c.MemBanks)
	}
	if err := c.validateTiming(); err != nil {
		return err
	}
	// Every run builds the retry switch, whatever the mechanism.
	if c.WBHT.SwitchEnabled && c.WBHT.RetryWindow <= 0 {
		return fmt.Errorf("config: WBHT RetryWindow = %d, must be positive while SwitchEnabled", c.WBHT.RetryWindow)
	}
	if c.Mechanism == WBHT || c.Mechanism == Combined {
		if err := validateTable("WBHT", c.WBHT.Entries, c.WBHT.Assoc); err != nil {
			return err
		}
		if g := c.WBHT.LinesPerEntry; !positivePow2(g) {
			return fmt.Errorf("config: WBHT LinesPerEntry = %d, must be a positive power of two", g)
		}
	}
	if c.Mechanism == Snarf || c.Mechanism == Combined {
		if err := validateTable("Snarf", c.Snarf.Entries, c.Snarf.Assoc); err != nil {
			return err
		}
	}
	if c.Mechanism == ReuseDist {
		if err := validateTable("ReuseDist", c.ReuseDist.Entries, c.ReuseDist.Assoc); err != nil {
			return err
		}
		if c.ReuseDist.MaxDistance == 0 {
			return fmt.Errorf("config: ReuseDist MaxDistance must be positive")
		}
		if c.ReuseDist.EWMAShift > 16 {
			return fmt.Errorf("config: ReuseDist EWMAShift = %d, must be at most 16", c.ReuseDist.EWMAShift)
		}
	}
	if c.Mechanism == HybridUI {
		if err := validateTable("HybridUI", c.HybridUI.Entries, c.HybridUI.Assoc); err != nil {
			return err
		}
		if c.HybridUI.UpdateThreshold <= 0 {
			return fmt.Errorf("config: HybridUI UpdateThreshold = %d, must be positive", c.HybridUI.UpdateThreshold)
		}
	}
	return nil
}

// validateTiming rejects latencies and occupancies that would schedule
// an event in the past or re-poll a stalled miss at the same cycle
// forever: the stall backoff and every occupancy must be positive, the
// core-side latencies non-negative, and each source latency must cover
// the data-ring transfer it ends with.
func (c Config) validateTiming() error {
	for _, f := range []struct {
		name    string
		v, min  Cycles
		minName string // names min when it is another field
	}{
		{"RetryBackoff", c.RetryBackoff, 1, ""},
		{"AddrRingOccupancy", c.AddrRingOccupancy, 1, ""},
		{"DataRingOccupancy", c.DataRingOccupancy, 1, ""},
		{"L2PortOccupancy", c.L2PortOccupancy, 1, ""},
		{"L3SliceOccupancy", c.L3SliceOccupancy, 1, ""},
		{"MemBankOccupancy", c.MemBankOccupancy, 1, ""},
		{"CoreToL2", c.CoreToL2, 0, ""},
		{"L2Access", c.L2Access, 0, ""},
		{"AddressPhase", c.AddressPhase, 0, ""},
		{"PeerSourceLatency", c.PeerSourceLatency, c.DataRingOccupancy, "DataRingOccupancy"},
		{"L3SourceLatency", c.L3SourceLatency, c.DataRingOccupancy, "DataRingOccupancy"},
		{"MemSourceLatency", c.MemSourceLatency, c.DataRingOccupancy, "DataRingOccupancy"},
	} {
		switch {
		case f.v >= f.min:
		case f.minName != "":
			return fmt.Errorf("config: %s = %d, must be at least %s = %d", f.name, f.v, f.minName, f.min)
		default:
			return fmt.Errorf("config: %s = %d, must be at least %d", f.name, f.v, f.min)
		}
	}
	return nil
}

// positivePow2 reports whether n is a positive power of two.
func positivePow2(n int) bool { return n > 0 && bits.OnesCount(uint(n)) == 1 }

func validateTable(name string, entries, assoc int) error {
	if entries <= 0 || assoc <= 0 {
		return fmt.Errorf("config: %s table entries/assoc must be positive", name)
	}
	if entries%assoc != 0 {
		return fmt.Errorf("config: %s table entries %d not divisible by assoc %d", name, entries, assoc)
	}
	sets := entries / assoc
	if !positivePow2(sets) {
		return fmt.Errorf("config: %s table sets %d must be a power of two", name, sets)
	}
	return nil
}
