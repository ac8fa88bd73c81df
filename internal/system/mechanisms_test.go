package system

import (
	"testing"

	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/trace"
)

// sharedEvictionTrace makes two L2s (threads 0 and 4) walk the same
// assoc+1 lines of one set so both hold copies and both eventually evict
// them.
func sharedEvictionTrace(cfg *config.Config, rounds int) *trace.Trace {
	var recs []trace.Record
	for round := 0; round < rounds; round++ {
		for i := 0; i <= cfg.L2Assoc; i++ {
			recs = append(recs,
				trace.Record{Thread: 0, Op: trace.Load, Addr: lineAddr(cfg, 0, 0, i), Gap: 3000},
				trace.Record{Thread: 4, Op: trace.Load, Addr: lineAddr(cfg, 0, 0, i), Gap: 3000},
			)
		}
	}
	return mkTrace(recs...)
}

func TestGlobalWBHTAllocatesEverywhere(t *testing.T) {
	cfg := config.Default().WithMechanism(config.WBHT)
	cfg.WBHT.SwitchEnabled = false
	cfg.WBHT.GlobalAllocate = true
	s, r := run(t, cfg, sharedEvictionTrace(&cfg, 3))
	if r.WBHT.Allocations == 0 {
		t.Fatal("no WBHT allocations")
	}
	// With global allocation, the number of table entries created must be
	// a multiple of the L2 count per redundant write back; verify tables
	// other than the writer's hold entries.
	populated := 0
	for _, c := range s.l2s {
		if c.WBHT().Occupancy() > 0 {
			populated++
		}
	}
	if populated < len(s.l2s) {
		t.Fatalf("only %d of %d WBHTs populated under global allocation",
			populated, len(s.l2s))
	}
}

func TestLocalWBHTAllocatesOnlyWriter(t *testing.T) {
	cfg := config.Default().WithMechanism(config.WBHT)
	cfg.WBHT.SwitchEnabled = false
	// Only thread 0 (L2 0) runs: entries may appear only in table 0.
	var recs []trace.Record
	for round := 0; round < 3; round++ {
		for i := 0; i <= cfg.L2Assoc; i++ {
			recs = append(recs, trace.Record{
				Thread: 0, Op: trace.Load, Addr: lineAddr(&cfg, 0, 0, i), Gap: 2000,
			})
		}
	}
	s, _ := run(t, cfg, mkTrace(recs...))
	for i, c := range s.l2s[1:] {
		if c.WBHT().Occupancy() != 0 {
			t.Fatalf("L2 %d's WBHT populated without writing back", i+1)
		}
	}
	if s.l2s[0].WBHT().Occupancy() == 0 {
		t.Fatal("writer's WBHT empty")
	}
}

func TestSnarfModePeerSquash(t *testing.T) {
	cfg := config.Default().WithMechanism(config.Snarf)
	_, r := run(t, cfg, sharedEvictionTrace(&cfg, 2))
	if r.WBSquashedPeer == 0 {
		t.Fatal("no peer squashes despite shared eviction pattern")
	}
}

func TestDirtyWBSquashTransfersObligation(t *testing.T) {
	cfg := config.Default().WithMechanism(config.Snarf)
	// Thread 0 dirties line 0; thread 4 reads it (both L2s share it,
	// supplier L2 0 holds T). Evict from L2 0 -> dirty WB -> L2 1 holds a
	// valid copy -> squash; L2 1 must inherit the Tagged obligation.
	var recs []trace.Record
	recs = append(recs, trace.Record{Thread: 0, Op: trace.Store, Addr: lineAddr(&cfg, 0, 0, 0)})
	recs = append(recs, trace.Record{Thread: 4, Op: trace.Load, Addr: lineAddr(&cfg, 0, 0, 0), Gap: 2000})
	// Evict line 0 from L2 0 only.
	for i := 1; i <= cfg.L2Assoc; i++ {
		recs = append(recs, trace.Record{Thread: 0, Op: trace.Load, Addr: lineAddr(&cfg, 0, 0, i), Gap: 1000})
	}
	s, r := run(t, cfg, mkTrace(recs...))
	if r.WBSquashedPeer == 0 {
		t.Fatal("dirty write back not squashed by the sharing peer")
	}
	key := lineAddr(&cfg, 0, 0, 0) / uint64(cfg.LineBytes)
	if st := s.l2s[1].Line(key).State(); st != coherence.Tagged {
		t.Fatalf("peer state = %v, want T (inherited write-back obligation)", st)
	}
}

func TestSnarfConvertsL3AccessToIntervention(t *testing.T) {
	cfg := config.Default().WithMechanism(config.Snarf)
	// Build reuse history on thread 0's private set, then let the line be
	// snarfed and measure that a subsequent miss is peer-served.
	var recs []trace.Record
	for round := 0; round < 3; round++ {
		for i := 0; i <= cfg.L2Assoc; i++ {
			recs = append(recs, trace.Record{
				Thread: 0, Op: trace.Load, Addr: lineAddr(&cfg, 0, 0, i), Gap: 3000,
			})
		}
	}
	_, r := run(t, cfg, mkTrace(recs...))
	if r.WBSnarfed == 0 {
		t.Fatal("no snarfs on a recycling private set")
	}
	if r.FillsFromPeer == 0 {
		t.Fatal("snarfed lines never supplied interventions")
	}
}

func TestCastoutBackpressure(t *testing.T) {
	// Shrink the L3 to force castouts and verify memory writes occur.
	cfg := config.Default()
	cfg.L3SliceMB = 1
	var recs []trace.Record
	// Stream dirty lines through the L2s at four times the shrunken L3's
	// capacity: the L2s' dirty write backs overflow the L3, whose dirty
	// victims must be cast out to memory.
	lines := 4 * cfg.L3Lines()
	for i := 0; i < lines; i++ {
		recs = append(recs, trace.Record{
			Thread: uint16(i % 16), Op: trace.Store, Addr: uint64(i) * 128, Gap: 2,
		})
	}
	_, r := run(t, cfg, mkTrace(recs...))
	if r.L3Castouts == 0 {
		t.Fatal("no L3 castouts despite overflow of dirty lines")
	}
	if r.MemWrites == 0 {
		t.Fatal("castouts produced no memory writes")
	}
}

func TestRetrySwitchStatsExposed(t *testing.T) {
	cfg := config.Default().WithMechanism(config.WBHT)
	_, r := run(t, cfg, sharedEvictionTrace(&cfg, 2))
	if r.SwitchTotalWindows == 0 && r.Cycles > uint64(cfg.WBHT.RetryWindow) {
		t.Fatal("retry switch windows not accounted")
	}
}

func TestMechanismRunsProduceIdenticalRefCounts(t *testing.T) {
	tr := sharedEvictionTrace(ptr(config.Default()), 2)
	var counts []uint64
	for _, m := range []config.Mechanism{config.Baseline, config.WBHT, config.Snarf, config.Combined} {
		cfg := config.Default().WithMechanism(m)
		_, r := run(t, cfg, tr)
		counts = append(counts, r.RefsCompleted)
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Fatalf("mechanisms completed different ref counts: %v", counts)
		}
	}
}

func ptr(c config.Config) *config.Config { return &c }
