package core

import (
	"cmpcache/internal/cache"
	"cmpcache/internal/config"
)

// flagReused marks a SnarfTable entry whose line, after being written
// back, was missed on again — the paper's per-entry "use bit".
const flagReused uint8 = 1 << 0

// SnarfTable is the Section 3 reuse-history table that selects which
// write backs are offered to peer L2 caches: "this table is organized as
// a cache that maintains the tags of lines that have been replaced, with
// an additional bit per entry specifying when the line has been missed
// on either locally or by another L2 cache."
//
// Lifecycle of an entry:
//  1. Any L2 writes line X back  -> tag X enters the table (use bit 0).
//  2. Any L2 later misses on X   -> use bit set (X was replaced, then
//     wanted again: high reuse potential).
//  3. X is written back again    -> consult: a hit with the use bit set
//     marks the write-back bus transaction "snarfable", triggering the
//     snarf algorithm at snooping peer L2s.
//
// All L2 caches observe the same bus traffic, so per-L2 instances stay
// mutually consistent; the simulator instantiates one per L2 to mirror
// the hardware.
type SnarfTable struct {
	table *cache.Cache

	recordedWBs  uint64
	reuseMarks   uint64
	consults     uint64
	snarfableYes uint64
}

// NewSnarfTable builds a table from cfg (entries/assoc as validated by
// config.Validate).
func NewSnarfTable(cfg config.SnarfConfig) *SnarfTable {
	return &SnarfTable{table: cache.New(cfg.Entries/cfg.Assoc, cfg.Assoc)}
}

// RecordWriteBack notes that line key was written back by some L2
// (snooped from the bus). A new entry starts with the use bit clear; an
// existing entry keeps its use bit (reuse history is sticky while the
// entry survives) and is refreshed to MRU.
func (t *SnarfTable) RecordWriteBack(key uint64) {
	t.recordedWBs++
	t.table.TouchOrInsert(key, 0, 0)
}

// RecordMiss notes a demand L2 miss on line key, observed locally or
// snooped from a peer. If key still has an entry, its use bit is set.
func (t *SnarfTable) RecordMiss(key uint64) {
	if l := t.table.LookupTouch(key); l != nil {
		if l.Flags&flagReused == 0 {
			l.Flags |= flagReused
			t.reuseMarks++
		}
	}
}

// Snarfable consults the table for a write back of line key: true when
// the entry exists with the use bit set, directing peer L2s to attempt
// absorption.
func (t *SnarfTable) Snarfable(key uint64) bool {
	t.consults++
	l := t.table.LookupTouch(key)
	if l != nil && l.Flags&flagReused != 0 {
		t.snarfableYes++
		return true
	}
	return false
}

// Contains reports entry presence without perturbing recency or stats.
func (t *SnarfTable) Contains(key uint64) bool { return t.table.Contains(key) }

// Reused reports whether key's entry exists with the use bit set,
// without perturbing recency or stats.
func (t *SnarfTable) Reused(key uint64) bool {
	l, ok := t.table.Peek(key)
	return ok && l.Flags&flagReused != 0
}

// Entries returns the table capacity.
func (t *SnarfTable) Entries() int { return t.table.Capacity() }

// Occupancy returns the number of live entries.
func (t *SnarfTable) Occupancy() int { return t.table.CountValid() }

// Stats accessors.
func (t *SnarfTable) RecordedWriteBacks() uint64 { return t.recordedWBs }
func (t *SnarfTable) ReuseMarks() uint64         { return t.reuseMarks }
func (t *SnarfTable) Consults() uint64           { return t.consults }
func (t *SnarfTable) SnarfableHits() uint64      { return t.snarfableYes }
