package core

import (
	"testing"
	"testing/quick"

	"cmpcache/internal/config"
)

func wbhtCfg(entries, assoc int) config.WBHTConfig {
	c := config.DefaultWBHT()
	c.Entries = entries
	c.Assoc = assoc
	return c
}

func TestWBHTAllocateThenAbort(t *testing.T) {
	w := NewWBHT(wbhtCfg(64, 4))
	if w.ShouldAbort(100) {
		t.Fatal("empty table advised abort")
	}
	w.Allocate(100)
	if !w.ShouldAbort(100) {
		t.Fatal("allocated entry not found")
	}
	if w.Allocations() != 1 || w.Consults() != 2 || w.Hits() != 1 {
		t.Fatalf("stats = %d/%d/%d", w.Allocations(), w.Consults(), w.Hits())
	}
}

func TestWBHTLRUReplacement(t *testing.T) {
	// 1 set x 2 ways: the third allocation evicts the least recently
	// used entry ("lines that have not been accessed for a long time
	// will lose their place in the table using an LRU policy").
	w := NewWBHT(wbhtCfg(2, 2))
	w.Allocate(0)
	w.Allocate(2) // same set as 0 (set index = key & 0)
	w.ShouldAbort(0)
	w.Allocate(4)
	if w.Contains(2) {
		t.Fatal("LRU entry (2) survived")
	}
	if !w.Contains(0) || !w.Contains(4) {
		t.Fatal("recently used entries lost")
	}
}

func TestWBHTInvalidate(t *testing.T) {
	w := NewWBHT(wbhtCfg(16, 2))
	w.Allocate(5)
	w.Invalidate(5)
	if w.Contains(5) {
		t.Fatal("entry survived Invalidate")
	}
	if w.Occupancy() != 0 {
		t.Fatalf("occupancy = %d, want 0", w.Occupancy())
	}
}

func TestWBHTDecisionScoring(t *testing.T) {
	w := NewWBHT(wbhtCfg(16, 2))
	w.RecordDecision(true, true)   // aborted, was in L3: correct
	w.RecordDecision(false, false) // sent, not in L3: correct
	w.RecordDecision(true, false)  // aborted, NOT in L3: wrong (full miss later)
	w.RecordDecision(false, true)  // sent unnecessarily: wrong
	if w.Correct() != 2 || w.Wrong() != 2 {
		t.Fatalf("correct/wrong = %d/%d, want 2/2", w.Correct(), w.Wrong())
	}
	if w.CorrectRate() != 0.5 {
		t.Fatalf("CorrectRate = %v, want 0.5", w.CorrectRate())
	}
	fresh := NewWBHT(wbhtCfg(16, 2))
	if fresh.CorrectRate() != 0 {
		t.Fatal("CorrectRate on unscored table should be 0")
	}
}

func TestWBHTEntriesAndOccupancy(t *testing.T) {
	w := NewWBHT(wbhtCfg(64, 4))
	if w.Entries() != 64 {
		t.Fatalf("Entries = %d, want 64", w.Entries())
	}
	for k := uint64(0); k < 10; k++ {
		w.Allocate(k)
	}
	if w.Occupancy() != 10 {
		t.Fatalf("Occupancy = %d, want 10", w.Occupancy())
	}
}

// Property: the WBHT never exceeds its capacity and double allocation of
// the same key keeps occupancy stable.
func TestWBHTOccupancyProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		w := NewWBHT(wbhtCfg(32, 4))
		for _, k := range keys {
			w.Allocate(uint64(k))
			if w.Occupancy() > w.Entries() {
				return false
			}
		}
		before := w.Occupancy()
		for _, k := range keys {
			w.Allocate(uint64(k)) // all already present or re-insertable
		}
		return w.Occupancy() >= before/2 // no collapse; loose sanity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// activeAt advances s to now and reads it, as the event loop does
// before a cycle's first event.
func activeAt(s *RetrySwitch, now config.Cycles) bool {
	s.AdvanceTo(now)
	return s.ActiveNow()
}

func TestRetrySwitchDisabledAlwaysActive(t *testing.T) {
	cfg := config.DefaultWBHT()
	cfg.SwitchEnabled = false
	s := NewRetrySwitch(cfg)
	if !activeAt(s, 0) || !activeAt(s, 1_000_000_000) {
		t.Fatal("disabled switch must report always-active")
	}
}

func TestRetrySwitchActivatesUnderPressure(t *testing.T) {
	cfg := config.DefaultWBHT()
	cfg.RetryWindow = 1000
	cfg.RetryThreshold = 10
	s := NewRetrySwitch(cfg)
	if activeAt(s, 0) {
		t.Fatal("switch active before any window completed")
	}
	for i := 0; i < 10; i++ {
		s.RecordRetry(config.Cycles(i * 10))
	}
	if activeAt(s, 999) {
		t.Fatal("switch flipped mid-window")
	}
	if !activeAt(s, 1000) {
		t.Fatal("switch inactive after a window with >= threshold retries")
	}
	if s.RetriesSeen() != 10 {
		t.Fatalf("RetriesSeen = %d, want 10", s.RetriesSeen())
	}
}

func TestRetrySwitchDeactivatesWhenQuiet(t *testing.T) {
	cfg := config.DefaultWBHT()
	cfg.RetryWindow = 1000
	cfg.RetryThreshold = 5
	s := NewRetrySwitch(cfg)
	for i := 0; i < 5; i++ {
		s.RecordRetry(config.Cycles(i))
	}
	if !activeAt(s, 1000) {
		t.Fatal("not active after busy window")
	}
	// Window [1000,2000) has only 2 retries: below threshold.
	s.RecordRetry(1500)
	s.RecordRetry(1600)
	if activeAt(s, 2000) {
		t.Fatal("still active after sub-threshold window")
	}
}

func TestRetrySwitchLongQuietGap(t *testing.T) {
	cfg := config.DefaultWBHT()
	cfg.RetryWindow = 100
	cfg.RetryThreshold = 1
	s := NewRetrySwitch(cfg)
	s.RecordRetry(10)
	if !activeAt(s, 100) {
		t.Fatal("not active after busy window")
	}
	// Jumping many windows with zero retries must deactivate, even
	// though the last counted window was busy.
	if activeAt(s, 1000) {
		t.Fatal("active after long quiet gap")
	}
	if s.TotalWindows() < 2 {
		t.Fatalf("TotalWindows = %d, want >= 2", s.TotalWindows())
	}
}

func TestRetrySwitchPaperRate(t *testing.T) {
	// At the paper's operating point (2,000 per 1M cycles, here scaled
	// to 200 per 100K), a retry rate just above threshold activates and
	// just below deactivates.
	s := NewRetrySwitch(config.DefaultWBHT())
	for i := 0; i < 200; i++ {
		s.RecordRetry(config.Cycles(i * 500)) // 200 retries in 100K cycles
	}
	if !activeAt(s, 100_000) {
		t.Fatal("rate at threshold should activate")
	}
	s2 := NewRetrySwitch(config.DefaultWBHT())
	for i := 0; i < 199; i++ {
		s2.RecordRetry(config.Cycles(i * 500))
	}
	if activeAt(s2, 100_000) {
		t.Fatal("rate below threshold should not activate")
	}
}

func TestRetrySwitchInvalidWindowPanics(t *testing.T) {
	cfg := config.DefaultWBHT()
	cfg.RetryWindow = 0
	defer func() {
		if recover() == nil {
			t.Fatal("zero window did not panic")
		}
	}()
	NewRetrySwitch(cfg)
}

// Property: AdvanceTo never consults the future — feeding retries at
// non-decreasing times and advancing to those same times never panics
// and activity only reflects completed windows.
func TestRetrySwitchMonotonicProperty(t *testing.T) {
	f := func(gaps []uint16) bool {
		cfg := config.DefaultWBHT()
		cfg.RetryWindow = 50
		cfg.RetryThreshold = 3
		s := NewRetrySwitch(cfg)
		now := config.Cycles(0)
		for _, g := range gaps {
			now += config.Cycles(g % 100)
			s.RecordRetry(now)
			s.AdvanceTo(now)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func snarfCfg(entries, assoc int) config.SnarfConfig {
	c := config.DefaultSnarf()
	c.Entries = entries
	c.Assoc = assoc
	return c
}

func TestSnarfTableLifecycle(t *testing.T) {
	s := NewSnarfTable(snarfCfg(64, 4))
	// First write back: entry allocated, not yet snarfable.
	s.RecordWriteBack(42)
	if s.Snarfable(42) {
		t.Fatal("line snarfable before any reuse observed")
	}
	// Miss on the line: use bit set.
	s.RecordMiss(42)
	if !s.Reused(42) {
		t.Fatal("use bit not set by RecordMiss")
	}
	// Second write back: consult says snarfable.
	if !s.Snarfable(42) {
		t.Fatal("reused line not snarfable")
	}
	if s.SnarfableHits() != 1 || s.ReuseMarks() != 1 || s.RecordedWriteBacks() != 1 {
		t.Fatalf("stats = %d/%d/%d", s.SnarfableHits(), s.ReuseMarks(), s.RecordedWriteBacks())
	}
}

func TestSnarfTableMissWithoutEntry(t *testing.T) {
	s := NewSnarfTable(snarfCfg(64, 4))
	s.RecordMiss(7) // never written back: no entry, no effect
	if s.Contains(7) {
		t.Fatal("RecordMiss created an entry")
	}
	if s.Snarfable(7) {
		t.Fatal("unknown line snarfable")
	}
}

func TestSnarfTableUseBitStickyAcrossWriteBacks(t *testing.T) {
	s := NewSnarfTable(snarfCfg(64, 4))
	s.RecordWriteBack(9)
	s.RecordMiss(9)
	s.RecordWriteBack(9) // re-record must not clear the use bit
	if !s.Reused(9) {
		t.Fatal("use bit cleared by repeated RecordWriteBack")
	}
	if !s.Snarfable(9) {
		t.Fatal("line lost snarfability")
	}
}

func TestSnarfTableEvictionDropsHistory(t *testing.T) {
	s := NewSnarfTable(snarfCfg(2, 2)) // 1 set x 2 ways
	s.RecordWriteBack(0)
	s.RecordWriteBack(2)
	s.RecordMiss(0)      // touches 0 to MRU; order is now [0, 2]
	s.RecordWriteBack(4) // evicts LRU entry
	if s.Occupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2", s.Occupancy())
	}
	// Entry 2 was least recently used and must be gone.
	if s.Contains(2) {
		t.Fatal("expected entry 2 evicted")
	}
	if !s.Contains(0) {
		t.Fatal("recently reused entry 0 lost")
	}
}

// Property: occupancy never exceeds capacity and Snarfable implies
// Contains.
func TestSnarfTableInvariantProperty(t *testing.T) {
	f := func(ops []struct {
		Key  uint16
		Kind uint8
	}) bool {
		s := NewSnarfTable(snarfCfg(32, 4))
		for _, o := range ops {
			k := uint64(o.Key % 256)
			switch o.Kind % 3 {
			case 0:
				s.RecordWriteBack(k)
			case 1:
				s.RecordMiss(k)
			case 2:
				if s.Snarfable(k) && !s.Contains(k) {
					return false
				}
			}
			if s.Occupancy() > s.Entries() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
