package cache

import (
	"testing"
	"testing/quick"
)

func TestInsertPreferUsesInvalidFirst(t *testing.T) {
	c := New(1, 3)
	c.Insert(0, stShared, 0, true)
	_, did := c.InsertPrefer(1, stShared, 0, true, 4, func(Line) bool { return true })
	if did {
		t.Fatal("evicted despite a free way")
	}
}

func TestInsertPreferPicksPreferredOverLRU(t *testing.T) {
	c := New(1, 4)
	for k := uint64(0); k < 4; k++ {
		c.Insert(k, stShared, 0, true)
	}
	// MRU->LRU order: 3,2,1,0. Prefer key 1 (not the LRU 0).
	ev, did := c.InsertPrefer(9, stShared, 0, true, 4, func(l Line) bool { return l.Key == 1 })
	if !did || ev.Key != 1 {
		t.Fatalf("evicted %+v, want preferred key 1", ev)
	}
	if !c.Contains(0) {
		t.Fatal("LRU line was displaced despite preference elsewhere")
	}
}

func TestInsertPreferScansLRUFirst(t *testing.T) {
	c := New(1, 4)
	for k := uint64(0); k < 4; k++ {
		c.Insert(k, stShared, 0, true)
	}
	// Both 0 (LRU) and 1 qualify; the LRU-most must win.
	ev, _ := c.InsertPrefer(9, stShared, 0, true, 4, func(l Line) bool {
		return l.Key == 0 || l.Key == 1
	})
	if ev.Key != 0 {
		t.Fatalf("evicted %d, want LRU-most preferred 0", ev.Key)
	}
}

func TestInsertPreferWindowLimitsSearch(t *testing.T) {
	c := New(1, 4)
	for k := uint64(0); k < 4; k++ {
		c.Insert(k, stShared, 0, true)
	}
	// Only key 3 (the MRU way) qualifies, but the window covers just the
	// two LRU-most ways: fall back to plain LRU.
	ev, _ := c.InsertPrefer(9, stShared, 0, true, 2, func(l Line) bool { return l.Key == 3 })
	if ev.Key != 0 {
		t.Fatalf("evicted %d, want LRU fallback 0", ev.Key)
	}
}

func TestInsertPreferNilPredicateIsPlainLRU(t *testing.T) {
	c := New(1, 2)
	c.Insert(0, stShared, 0, true)
	c.Insert(1, stShared, 0, true)
	ev, _ := c.InsertPrefer(9, stShared, 0, true, 2, nil)
	if ev.Key != 0 {
		t.Fatalf("evicted %d, want 0", ev.Key)
	}
}

func TestInsertPreferExistingKeyUpdates(t *testing.T) {
	c := New(1, 2)
	c.Insert(7, stShared, 0, true)
	ev, did := c.InsertPrefer(7, stModified, 1, true, 2, func(Line) bool { return true })
	if did {
		t.Fatalf("re-insert evicted %+v", ev)
	}
	l, _ := c.Peek(7)
	if l.State != stModified || l.Flags != 1 {
		t.Fatalf("line = %+v", l)
	}
}

// Property: InsertPrefer preserves the no-duplicate and capacity
// invariants regardless of predicate behavior.
func TestInsertPreferInvariants(t *testing.T) {
	f := func(keys []uint16, acceptMask uint8) bool {
		c := New(4, 4)
		for _, kr := range keys {
			k := uint64(kr % 64)
			c.InsertPrefer(k, stShared, 0, true, 3, func(l Line) bool {
				return l.Key&uint64(acceptMask%7) == 0
			})
		}
		seen := map[uint64]int{}
		c.ForEach(1, func(l Line) { seen[l.Key]++ })
		for _, n := range seen {
			if n > 1 {
				return false
			}
		}
		return c.CountValid() <= c.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
