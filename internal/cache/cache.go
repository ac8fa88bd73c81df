// Package cache implements a generic set-associative tag store with
// true-LRU replacement and state-aware victim search. It backs the L1
// filter, the L2 and L3 cache models, and — because the paper organizes
// them "just like a cache tag array" — the Write Back History Table and
// the L2-snarf reuse table.
//
// The store maps 64-bit keys (line addresses, pre-shifted by the caller)
// to a small per-line record, Meta: an int8 coherence state, a uint8 of
// caller-defined flag bits and the valid bit. Keys and records live in
// two parallel flat slices, so a probe scans only the set's keys (one
// 64-byte host cache line for an 8-way set) and reads a record's valid
// bit only when its key matches. Within a set, ways are kept physically
// ordered from MRU (index 0) to LRU (last index), so recency updates are
// a short memmove of both slices and victim search is a scan of at most
// assoc entries.
//
// A sliced cache (the L2 and the L3) is one array: its slice bits are
// the low bits of the set index, so each slice's sets interleave and the
// store holds chip-wide keys. ForEach's stride visits such an array
// slice by slice.
package cache

import (
	"fmt"
	"math/bits"
)

// Line is one cache entry as a value: victims, Peek, ReplaceableWay and
// ForEach report lines this way. Valid distinguishes a live entry from
// an empty way; State and Flags are caller-defined.
type Line struct {
	Key   uint64
	State int8
	Flags uint8
	Valid bool
}

// Meta is the record stored beside each key. Lookup and LookupTouch
// return a pointer to it so callers can update State and Flags in place.
type Meta struct {
	State int8
	Flags uint8
	Valid bool
}

// Cache is a set-associative store. It is not safe for concurrent use;
// the simulator is single-threaded by design.
type Cache struct {
	assoc   int
	setMask uint64
	// keys and meta are parallel, sets*assoc long; set s occupies
	// [s*assoc, (s+1)*assoc) of both, in MRU->LRU order. An invalid
	// way holds key 0 and the zero Meta, so displacing it reports the
	// zero Line; key 0 itself is valid only where its Meta says so.
	keys []uint64
	meta []Meta
}

// New returns a cache with the given geometry. sets must be a positive
// power of two and assoc positive.
func New(sets, assoc int) *Cache {
	if sets <= 0 || bits.OnesCount(uint(sets)) != 1 {
		panic(fmt.Sprintf("cache: sets = %d, must be a positive power of two", sets))
	}
	if assoc <= 0 {
		panic(fmt.Sprintf("cache: assoc = %d, must be positive", assoc))
	}
	return &Cache{
		assoc:   assoc,
		setMask: uint64(sets - 1),
		keys:    make([]uint64, sets*assoc),
		meta:    make([]Meta, sets*assoc),
	}
}

// Capacity returns the number of ways across all sets.
func (c *Cache) Capacity() int { return len(c.keys) }

// set returns the key and record slices of the set key maps to.
func (c *Cache) set(key uint64) ([]uint64, []Meta) {
	s := int(key&c.setMask) * c.assoc
	e := s + c.assoc
	return c.keys[s:e:e], c.meta[s:e:e]
}

// find returns the way index of key within a set, or -1. Only a
// matching key's valid bit is read.
func find(keys []uint64, meta []Meta, key uint64) int {
	meta = meta[:len(keys)]
	for i, k := range keys {
		if k == key && meta[i].Valid {
			return i
		}
	}
	return -1
}

// firstInvalid returns the lowest invalid way of a set, or -1.
func firstInvalid(meta []Meta) int {
	for i := range meta {
		if !meta[i].Valid {
			return i
		}
	}
	return -1
}

// moveToFront rotates ways [0..way] right by one, placing way at MRU.
func moveToFront(keys []uint64, meta []Meta, way int) {
	if way == 0 {
		return
	}
	k, m := keys[way], meta[way]
	copy(keys[1:way+1], keys[:way])
	copy(meta[1:way+1], meta[:way])
	keys[0], meta[0] = k, m
}

// place overwrites way with key, moving it to MRU when atMRU is true and
// to LRU otherwise; the ways in between shift by one to keep recency
// order. It returns the line that occupied way.
func place(keys []uint64, meta []Meta, way int, key uint64, state int8, flags uint8, atMRU bool) Line {
	old := Line{Key: keys[way], State: meta[way].State, Flags: meta[way].Flags, Valid: meta[way].Valid}
	m := Meta{State: state, Flags: flags, Valid: true}
	if atMRU {
		copy(keys[1:way+1], keys[:way])
		copy(meta[1:way+1], meta[:way])
		keys[0], meta[0] = key, m
	} else {
		last := len(keys) - 1
		copy(keys[way:], keys[way+1:])
		copy(meta[way:], meta[way+1:])
		keys[last], meta[last] = key, m
	}
	return old
}

// Lookup returns a pointer to the record of key, or nil on miss. It
// does not update recency; pair with Touch for a demand access. The
// returned pointer is invalidated by any subsequent mutating call.
func (c *Cache) Lookup(key uint64) *Meta {
	keys, meta := c.set(key)
	if w := find(keys, meta, key); w >= 0 {
		return &meta[w]
	}
	return nil
}

// Contains reports whether key is present without touching recency
// (used for oracle "peeks", e.g. measuring WBHT decision correctness
// against actual L3 contents).
func (c *Cache) Contains(key uint64) bool {
	keys, meta := c.set(key)
	return find(keys, meta, key) >= 0
}

// Peek is Contains returning the line value (zero Line when absent).
func (c *Cache) Peek(key uint64) (Line, bool) {
	keys, meta := c.set(key)
	if w := find(keys, meta, key); w >= 0 {
		m := meta[w]
		return Line{Key: key, State: m.State, Flags: m.Flags, Valid: true}, true
	}
	return Line{}, false
}

// Touch moves key to the MRU position, reporting whether it was present.
func (c *Cache) Touch(key uint64) bool {
	keys, meta := c.set(key)
	w := find(keys, meta, key)
	if w < 0 {
		return false
	}
	moveToFront(keys, meta, w)
	return true
}

// LookupTouch combines Lookup and Touch; on a hit the returned pointer
// refers to the (now) MRU way.
func (c *Cache) LookupTouch(key uint64) *Meta {
	keys, meta := c.set(key)
	w := find(keys, meta, key)
	if w < 0 {
		return nil
	}
	moveToFront(keys, meta, w)
	return &meta[0]
}

// TouchOrInsert is LookupTouch followed, on a miss, by an Insert at
// MRU, in one probe of the set. On a hit it returns key's record, now
// at MRU and otherwise unchanged. On a miss it returns nil and places
// key at MRU with state and flags, in the set's lowest invalid way or
// else its LRU way; evicted is the line that way held (Valid is false
// when the way was invalid).
func (c *Cache) TouchOrInsert(key uint64, state int8, flags uint8) (hit *Meta, evicted Line) {
	keys, meta := c.set(key)
	if w := find(keys, meta, key); w >= 0 {
		moveToFront(keys, meta, w)
		return &meta[0], Line{}
	}
	victim := firstInvalid(meta)
	if victim < 0 {
		victim = len(keys) - 1
	}
	return nil, place(keys, meta, victim, key, state, flags, true)
}

// Insert places key with the given state, at MRU when atMRU is true and
// at LRU otherwise, returning the valid line it displaced, if any. When
// key is already present, its state is overwritten and the line's
// recency updated per atMRU; no eviction occurs.
func (c *Cache) Insert(key uint64, state int8, flags uint8, atMRU bool) (evicted Line, didEvict bool) {
	return c.InsertPrefer(key, state, flags, atMRU, 0, nil)
}

// InsertPrefer is Insert with a victim-preference hook for the paper's
// Section 7 history-informed replacement: when no invalid way exists,
// the window LRU-most ways are scanned (LRU first) for a line the
// predicate accepts — e.g. a clean line known to reside in the L3,
// whose eviction costs neither a write back nor a memory access. When
// none qualifies, the plain LRU way is displaced.
func (c *Cache) InsertPrefer(key uint64, state int8, flags uint8, atMRU bool, window int, prefer func(Line) bool) (evicted Line, didEvict bool) {
	keys, meta := c.set(key)
	if w := find(keys, meta, key); w >= 0 {
		meta[w].State = state
		meta[w].Flags = flags
		if atMRU {
			moveToFront(keys, meta, w)
		}
		return Line{}, false
	}
	victim := firstInvalid(meta)
	if victim < 0 && prefer != nil {
		for i := len(keys) - 1; i >= 0 && i >= len(keys)-window; i-- {
			if prefer(Line{Key: keys[i], State: meta[i].State, Flags: meta[i].Flags, Valid: true}) {
				victim = i
				break
			}
		}
	}
	if victim < 0 {
		victim = len(keys) - 1
	}
	old := place(keys, meta, victim, key, state, flags, atMRU)
	return old, old.Valid
}

// Invalidate removes key, reporting whether it was present. The freed
// way moves to the LRU end so it is reused first.
func (c *Cache) Invalidate(key uint64) (Line, bool) {
	keys, meta := c.set(key)
	w := find(keys, meta, key)
	if w < 0 {
		return Line{}, false
	}
	return invalidate(keys, meta, w), true
}

// LookupWay is Lookup that also returns key's way within its set (-1 on
// a miss), for a later InvalidateWay that must not search the set
// again.
func (c *Cache) LookupWay(key uint64) (int, *Meta) {
	keys, meta := c.set(key)
	if w := find(keys, meta, key); w >= 0 {
		return w, &meta[w]
	}
	return -1, nil
}

// InvalidateWay is Invalidate of the line at way of key's set, as
// LookupWay found it with no mutating call since, and returns that
// line.
func (c *Cache) InvalidateWay(key uint64, way int) Line {
	keys, meta := c.set(key)
	return invalidate(keys, meta, way)
}

// invalidate removes way from a set, moving the freed way to the LRU
// end, and returns the line it held.
func invalidate(keys []uint64, meta []Meta, w int) Line {
	old := Line{Key: keys[w], State: meta[w].State, Flags: meta[w].Flags, Valid: meta[w].Valid}
	last := len(keys) - 1
	copy(keys[w:], keys[w+1:])
	copy(meta[w:], meta[w+1:])
	keys[last], meta[last] = 0, Meta{}
	return old
}

// ReplaceableWay searches the set key maps to for a way the caller may
// displace without a demand miss: first any invalid way, then — scanning
// from LRU toward MRU — a way whose state appears in okStates. It
// returns the way index and the line currently there, or -1 when the set
// offers no candidate. This implements the snarf-recipient victim policy
// of Section 3 ("Our replacement algorithm first looks for invalid
// lines. If none are found, we search for lines in the Shared state.").
func (c *Cache) ReplaceableWay(key uint64, okStates ...int8) (int, Line) {
	keys, meta := c.set(key)
	if w := firstInvalid(meta); w >= 0 {
		return w, Line{}
	}
	for i := len(keys) - 1; i >= 0; i-- {
		for _, s := range okStates {
			if meta[i].State == s {
				return i, Line{Key: keys[i], State: meta[i].State, Flags: meta[i].Flags, Valid: true}
			}
		}
	}
	return -1, Line{}
}

// ReplaceWay overwrites the given way of key's set with key, placing it
// at MRU or LRU per atMRU, and returns the displaced line. The caller is
// responsible for having chosen way via ReplaceableWay.
func (c *Cache) ReplaceWay(key uint64, way int, state int8, flags uint8, atMRU bool) Line {
	keys, meta := c.set(key)
	if way < 0 || way >= len(keys) {
		panic(fmt.Sprintf("cache: ReplaceWay way %d out of range", way))
	}
	return place(keys, meta, way, key, state, flags, atMRU)
}

// CountValid returns the number of valid lines. It scans the whole
// array, so no run calls it: the L3 keeps a live count, and the WBHT's
// and snarf table's Occupancy serve tests.
func (c *Cache) CountValid() int {
	n := 0
	for i := range c.meta {
		if c.meta[i].Valid {
			n++
		}
	}
	return n
}

// ForEach invokes fn for every valid line, set by set in the order 0,
// stride, 2·stride, …, then 1, 1+stride, …, and within a set from MRU
// to LRU. An array built from stride interleaved slices (set s in slice
// s mod stride) is thereby visited slice by slice; stride 1 is plain
// set order. stride must be a positive power of two no larger than the
// set count.
func (c *Cache) ForEach(stride int, fn func(Line)) {
	sets := len(c.keys) / c.assoc
	for first := 0; first < stride; first++ {
		for s := first; s < sets; s += stride {
			for i := s * c.assoc; i < (s+1)*c.assoc; i++ {
				if m := c.meta[i]; m.Valid {
					fn(Line{Key: c.keys[i], State: m.State, Flags: m.Flags, Valid: true})
				}
			}
		}
	}
}
