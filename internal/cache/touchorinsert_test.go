package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// touchOrInsertRef is the two-probe sequence TouchOrInsert replaces.
func touchOrInsertRef(c *Cache, key uint64, state int8, flags uint8) (*Meta, Line) {
	if m := c.LookupTouch(key); m != nil {
		return m, Line{}
	}
	evicted, _ := c.Insert(key, state, flags, true)
	return nil, evicted
}

// TestTouchOrInsertMatchesTwoCalls drives two caches through the same
// random operations, one calling TouchOrInsert where the other calls
// LookupTouch and then Insert on a miss, and requires the same answers
// and, after every step, the same keys, records and recency order in
// every way. LRU inserts and invalidations leave invalid ways between
// valid ones, so the victim search sees every layout.
func TestTouchOrInsertMatchesTwoCalls(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		got, want := New(4, 4), New(4, 4)
		for step := 0; step < 5000; step++ {
			key := uint64(r.Intn(48))
			state, flags := int8(r.Intn(4)), uint8(r.Intn(4))
			switch op := r.Intn(8); {
			case op < 4:
				gm, gev := got.TouchOrInsert(key, state, flags)
				wm, wev := touchOrInsertRef(want, key, state, flags)
				if (gm == nil) != (wm == nil) || gev != wev {
					t.Fatalf("seed %d step %d key %d: TouchOrInsert = (%v, %+v), reference = (%v, %+v)",
						seed, step, key, gm, gev, wm, wev)
				}
				if gm != nil {
					if *gm != *wm || gm != &got.meta[int(key&got.setMask)*got.assoc] {
						t.Fatalf("seed %d step %d key %d: hit record %+v, reference %+v, or not at MRU", seed, step, key, *gm, *wm)
					}
					// Callers update the returned record in place.
					gm.Flags |= flags
					wm.Flags |= flags
				}
			case op == 4:
				got.Insert(key, state, flags, false)
				want.Insert(key, state, flags, false)
			case op == 5:
				got.Invalidate(key)
				want.Invalidate(key)
			default:
				got.Touch(key)
				want.Touch(key)
			}
			if !slices.Equal(got.keys, want.keys) || !slices.Equal(got.meta, want.meta) {
				t.Fatalf("seed %d step %d: ways differ\n got %v %v\nwant %v %v", seed, step, got.keys, got.meta, want.keys, want.meta)
			}
		}
	}
}

// TestLookupWayInvalidateWay: InvalidateWay on the way LookupWay found
// leaves the set exactly as Invalidate does.
func TestLookupWayInvalidateWay(t *testing.T) {
	got, want := New(1, 4), New(1, 4)
	for _, c := range []*Cache{got, want} {
		for k := uint64(1); k <= 4; k++ {
			c.Insert(k, stShared, uint8(k), true)
		}
	}
	if w, m := got.LookupWay(9); w != -1 || m != nil {
		t.Fatalf("LookupWay(absent) = %d, %v", w, m)
	}
	w, m := got.LookupWay(3)
	if w != 1 || m == nil || m.Flags != 3 {
		t.Fatalf("LookupWay(3) = %d, %+v; want way 1 (MRU order 4,3,2,1)", w, m)
	}
	gl := got.InvalidateWay(3, w)
	wl, _ := want.Invalidate(3)
	if gl != wl || !slices.Equal(got.keys, want.keys) || !slices.Equal(got.meta, want.meta) {
		t.Fatalf("InvalidateWay = %+v, keys %v; Invalidate = %+v, keys %v", gl, got.keys, wl, want.keys)
	}
}
