package l2

import "fmt"

// Structural-stall registrations.
//
// A demand miss that finds the write-back queue or the MSHRs full
// stalls and re-polls every RetryBackoff cycles ("misses to the L2
// cache will be blocked and will have to wait for an open slot"). A
// re-poll's outcome depends on five inputs: the key's presence in the
// tags, a live write-back entry for the key, an MSHR for the key,
// write-back-queue fullness and MSHR fullness. When the miss stalls,
// the first three are all absent, and each can appear only at one of
// six sites: InstallFill, Reinstall and AcceptSnarf install tags,
// ProcessVictim and RequeueWB queue a live write-back entry, and
// AllocMSHR allocates an MSHR. Each of those sites marks every
// registration on its key as changed. A re-poll whose registration is
// unchanged, and whose cache still reports a full queue or full MSHRs,
// would stall again, and a stalled probe has no side effect, so it may
// skip the probe.

// StallID names one stall registration (see Stall).
type StallID int32

// stallTable holds the registrations in fixed slots, one per possible
// stalled miss. A free slot keeps its last key and may be marked; Stall
// clears the mark when it reuses the slot. live counts the registrations
// by the low bits of their keys, so a marking site on a key no
// registration shares them with returns without scanning the slots.
type stallTable struct {
	keys    []uint64  // keys[id]: the registered line
	changed []bool    // changed[id]: a marking site ran on keys[id]
	free    []StallID // unused slots, a stack
	live    [64]int32 // live[k&63]: registrations whose key k has those low bits
}

// newStallTable sizes the table for n simultaneous registrations: each
// thread holds at most MaxOutstanding accesses, so an L2 has at most
// ThreadsPerL2 × MaxOutstanding stalled misses.
func newStallTable(n int) stallTable {
	t := stallTable{
		keys:    make([]uint64, n),
		changed: make([]bool, n),
		free:    make([]StallID, n),
	}
	for i := range t.free {
		t.free[i] = StallID(n - 1 - i)
	}
	return t
}

// mark flags every registration on key as changed.
func (t *stallTable) mark(key uint64) {
	if t.live[key&63] == 0 {
		return
	}
	for i, k := range t.keys {
		if k == key {
			t.changed[i] = true
		}
	}
}

// Stall registers key as a miss stalled on a full write-back queue or
// full MSHRs. The caller must hold no live write-back entry, MSHR or tag
// for key — exactly the state in which Probe reports ProbeMiss and no
// MSHR can be attached. It panics when more misses stall than the
// configuration's threads can have outstanding.
func (c *Cache) Stall(key uint64) StallID {
	t := &c.stalls
	n := len(t.free) - 1
	if n < 0 {
		panic(fmt.Sprintf("l2 %d: more than %d stalled misses", c.id, len(t.keys)))
	}
	id := t.free[n]
	t.free = t.free[:n]
	t.keys[id] = key
	t.changed[id] = false
	t.live[key&63]++
	return id
}

// StallChanged reports whether a marking site has run on registration
// id's key since Stall: the key may since have been installed, queued
// for write back or given an MSHR, so the full probe must run.
func (c *Cache) StallChanged(id StallID) bool { return c.stalls.changed[id] }

// Unstall drops registration id.
func (c *Cache) Unstall(id StallID) {
	t := &c.stalls
	t.live[t.keys[id]&63]--
	t.free = append(t.free, id)
}
