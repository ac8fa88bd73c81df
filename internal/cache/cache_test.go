package cache

import (
	"fmt"
	"testing"
	"testing/quick"
)

const (
	stInvalid int8 = iota
	stShared
	stExclusive
	stModified
)

func TestNewPanics(t *testing.T) {
	for _, tc := range []struct{ sets, assoc int }{{0, 4}, {3, 4}, {4, 0}, {-8, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", tc.sets, tc.assoc)
				}
			}()
			New(tc.sets, tc.assoc)
		}()
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := New(4, 2)
	if c.Lookup(5) != nil {
		t.Fatal("lookup on empty cache hit")
	}
	c.Insert(5, stShared, 0, true)
	l := c.Lookup(5)
	if l == nil || l.State != stShared || !l.Valid {
		t.Fatalf("lookup after insert = %+v", l)
	}
	// The record is the line's own: an update through it sticks.
	l.Flags = 7
	if p, ok := c.Peek(5); !ok || p.Key != 5 || p.Flags != 7 {
		t.Fatalf("Peek after update = %+v, %v", p, ok)
	}
}

// TestKeyZeroIsNotAnEmptyWay: an empty way's key reads as zero, so key 0
// must be found only once it is actually inserted.
func TestKeyZeroIsNotAnEmptyWay(t *testing.T) {
	c := New(1, 2)
	if c.Contains(0) || c.Lookup(0) != nil {
		t.Fatal("empty cache reports key 0 present")
	}
	c.Insert(0, stModified, 0, true)
	if l := c.Lookup(0); l == nil || l.State != stModified {
		t.Fatalf("Lookup(0) after insert = %+v", l)
	}
	c.Invalidate(0)
	if c.Contains(0) {
		t.Fatal("key 0 present after invalidate")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(1, 2) // single set, two ways
	c.Insert(0, stShared, 0, true)
	c.Insert(1, stShared, 0, true)
	c.Touch(0) // 0 is now MRU, 1 is LRU
	evicted, did := c.Insert(2, stShared, 0, true)
	if !did || evicted.Key != 1 {
		t.Fatalf("evicted %+v (did=%v), want key 1", evicted, did)
	}
	if !c.Contains(0) || !c.Contains(2) {
		t.Fatal("expected keys 0 and 2 resident")
	}
}

func TestInsertPrefersInvalidWay(t *testing.T) {
	c := New(1, 4)
	c.Insert(0, stShared, 0, true)
	_, did := c.Insert(1, stShared, 0, true)
	if did {
		t.Fatal("insert evicted despite free ways")
	}
}

func TestInsertAtLRUIsEvictedFirst(t *testing.T) {
	c := New(1, 3)
	c.Insert(10, stShared, 0, true)
	c.Insert(11, stShared, 0, true)
	c.Insert(12, stShared, 0, false) // inserted at LRU
	evicted, did := c.Insert(13, stShared, 0, true)
	if !did || evicted.Key != 12 {
		t.Fatalf("evicted %+v, want the LRU-inserted key 12", evicted)
	}
}

func TestInsertExistingUpdatesInPlace(t *testing.T) {
	c := New(1, 2)
	c.Insert(7, stShared, 0, true)
	c.Insert(8, stShared, 0, true)
	evicted, did := c.Insert(7, stModified, 3, true)
	if did {
		t.Fatalf("re-insert evicted %+v", evicted)
	}
	l, _ := c.Peek(7)
	if l.State != stModified || l.Flags != 3 {
		t.Fatalf("line after re-insert = %+v", l)
	}
	if c.CountValid() != 2 {
		t.Fatalf("valid lines = %d, want 2", c.CountValid())
	}
}

func TestSetIsolation(t *testing.T) {
	c := New(4, 1) // direct mapped, 4 sets
	for k := uint64(0); k < 4; k++ {
		if _, did := c.Insert(k, stShared, 0, true); did {
			t.Fatalf("insert of key %d evicted despite distinct sets", k)
		}
	}
	// Key 4 maps to set 0 and must evict key 0 only.
	evicted, did := c.Insert(4, stShared, 0, true)
	if !did || evicted.Key != 0 {
		t.Fatalf("evicted %+v, want key 0", evicted)
	}
	for k := uint64(1); k < 4; k++ {
		if !c.Contains(k) {
			t.Fatalf("key %d lost from its set", k)
		}
	}
}

func TestInvalidate(t *testing.T) {
	c := New(1, 2)
	c.Insert(1, stModified, 0, true)
	old, ok := c.Invalidate(1)
	if !ok || old.State != stModified {
		t.Fatalf("invalidate = %+v, %v", old, ok)
	}
	if c.Contains(1) {
		t.Fatal("key still present after invalidate")
	}
	if _, ok := c.Invalidate(1); ok {
		t.Fatal("double invalidate reported success")
	}
	// Freed way should be reused without eviction.
	c.Insert(2, stShared, 0, true)
	if _, did := c.Insert(3, stShared, 0, true); did {
		t.Fatal("insert after invalidate evicted")
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := New(1, 2)
	c.Insert(0, stShared, 0, true)
	c.Insert(1, stShared, 0, true) // 1 MRU, 0 LRU
	if !c.Contains(0) || c.Contains(9) {
		t.Fatal("Contains wrong")
	}
	if _, ok := c.Peek(0); !ok {
		t.Fatal("Peek missed a resident key")
	}
	// 0 must still be the LRU victim.
	if v, did := c.Insert(2, stShared, 0, true); !did || v.Key != 0 || !v.Valid {
		t.Fatalf("evicted %+v (did=%v), want key 0", v, did)
	}
}

func TestReplaceableWayPrefersInvalid(t *testing.T) {
	c := New(1, 3)
	c.Insert(0, stShared, 0, true)
	way, line := c.ReplaceableWay(1, stShared)
	if way < 0 || line.Valid {
		t.Fatalf("ReplaceableWay = %d, %+v; want an invalid way", way, line)
	}
}

func TestReplaceableWayFindsSharedFromLRU(t *testing.T) {
	c := New(1, 3)
	c.Insert(0, stModified, 0, true)
	c.Insert(1, stShared, 0, true)
	c.Insert(2, stShared, 0, true) // MRU->LRU: 2, 1, 0
	way, line := c.ReplaceableWay(9, stShared)
	if way < 0 || line.Key != 1 {
		t.Fatalf("ReplaceableWay chose %+v (way %d), want LRU-most shared key 1", line, way)
	}
}

func TestReplaceableWayDeclines(t *testing.T) {
	c := New(1, 2)
	c.Insert(0, stModified, 0, true)
	c.Insert(1, stExclusive, 0, true)
	if way, _ := c.ReplaceableWay(9, stShared); way != -1 {
		t.Fatalf("ReplaceableWay = %d, want -1 when only M/E lines present", way)
	}
}

func TestReplaceWay(t *testing.T) {
	c := New(1, 3)
	c.Insert(0, stShared, 0, true)
	c.Insert(1, stShared, 0, true)
	c.Insert(2, stShared, 0, true) // MRU->LRU: 2,1,0
	old := c.ReplaceWay(9, 2, stShared, 0, true)
	if old.Key != 0 {
		t.Fatalf("ReplaceWay displaced %+v, want key 0", old)
	}
	// Key 9 must now be MRU: inserting two more keys evicts 1 then 2.
	ev1, _ := c.Insert(10, stShared, 0, true)
	ev2, _ := c.Insert(11, stShared, 0, true)
	if ev1.Key != 1 || ev2.Key != 2 {
		t.Fatalf("subsequent evictions = %d, %d; want 1, 2", ev1.Key, ev2.Key)
	}
}

func TestReplaceWayAtLRU(t *testing.T) {
	c := New(1, 2)
	c.Insert(0, stShared, 0, true)
	c.Insert(1, stShared, 0, true) // MRU->LRU: 1, 0
	c.ReplaceWay(9, 1, stShared, 0, false)
	ev, _ := c.Insert(5, stShared, 0, true)
	if ev.Key != 9 {
		t.Fatalf("evicted %d, want the LRU-placed 9", ev.Key)
	}
}

func TestReplaceWayOutOfRangePanics(t *testing.T) {
	c := New(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("ReplaceWay out of range did not panic")
		}
	}()
	c.ReplaceWay(0, 5, stShared, 0, true)
}

// TestForEachOrder pins ForEach's visiting order: sets 0, stride,
// 2·stride, … then 1, 1+stride, …, each from MRU to LRU, skipping
// empty ways. With stride 2 over four sets, an array built from two
// interleaved slices is visited slice by slice.
func TestForEachOrder(t *testing.T) {
	c := New(4, 2)
	for _, k := range []uint64{0, 4, 1, 2, 6, 3} {
		c.Insert(k, stShared, uint8(k), true)
	}
	c.Insert(7, stModified, 7, true) // set 3, MRU->LRU: 7, 3
	c.Invalidate(6)                  // set 2 keeps only 2
	for _, tc := range []struct {
		stride int
		want   []uint64
	}{
		{1, []uint64{4, 0, 1, 2, 7, 3}},
		{2, []uint64{4, 0, 2, 1, 7, 3}},
	} {
		var got []uint64
		c.ForEach(tc.stride, func(l Line) {
			if !l.Valid || l.Flags != uint8(l.Key) {
				t.Fatalf("ForEach passed %+v", l)
			}
			got = append(got, l.Key)
		})
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("ForEach(%d) visited %v, want %v", tc.stride, got, tc.want)
		}
	}
	if n := c.CountValid(); n != 6 {
		t.Fatalf("CountValid = %d, want 6", n)
	}
}

// Property: a cache never holds duplicate keys, never exceeds capacity,
// and occupancy equals inserts minus evictions minus invalidations.
func TestCacheInvariantsProperty(t *testing.T) {
	type op struct {
		Key        uint16
		Kind       uint8
		AtMRU      bool
		FlagsState uint8
	}
	f := func(ops []op) bool {
		c := New(8, 4)
		inserted, evicted, invalidated := 0, 0, 0
		for _, o := range ops {
			key := uint64(o.Key % 512)
			switch o.Kind % 4 {
			case 0:
				was := c.Contains(key)
				_, did := c.Insert(key, int8(o.FlagsState%4), o.FlagsState, o.AtMRU)
				if !was {
					inserted++
				}
				if did {
					evicted++
				}
			case 1:
				c.Touch(key)
			case 2:
				if _, ok := c.Invalidate(key); ok {
					invalidated++
				}
			case 3:
				c.Lookup(key)
			}
			// No duplicates.
			seen := map[uint64]int{}
			c.ForEach(1, func(l Line) { seen[l.Key]++ })
			for _, n := range seen {
				if n > 1 {
					return false
				}
			}
			if c.CountValid() > c.Capacity() {
				return false
			}
		}
		return c.CountValid() == inserted-evicted-invalidated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: with single-set geometry, repeatedly inserting distinct keys
// evicts exactly in FIFO order of last use (true LRU).
func TestTrueLRUProperty(t *testing.T) {
	f := func(touchSeq []uint8) bool {
		const assoc = 4
		c := New(1, assoc)
		var order []uint64 // LRU order tracking, front = LRU
		touchModel := func(k uint64) {
			for i, v := range order {
				if v == k {
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
			order = append(order, k)
		}
		for _, tch := range touchSeq {
			k := uint64(tch % 8)
			if c.Contains(k) {
				c.Touch(k)
				touchModel(k)
				continue
			}
			ev, did := c.Insert(k, stShared, 0, true)
			if did {
				if len(order) == 0 || ev.Key != order[0] {
					return false
				}
				order = order[1:]
			}
			order = append(order, k)
			if len(order) != c.CountValid() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
