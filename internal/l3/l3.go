// Package l3 models the off-chip L3 victim cache of Figure 1: a sliced,
// 16-way set-associative array with an on-chip directory, fed by both
// clean and dirty write backs from the L2 caches and servicing demand
// misses that no on-chip L2 can intervene for.
//
// Two protocol behaviors from the paper live here:
//
//   - The baseline clean-write-back filter: "This baseline configuration
//     does filter lines written back from the L2 if the line appears in
//     the L3 cache by having the L3 cache squash the initial write back
//     request after it is snooped."
//   - Retry generation: "Lines may be rejected by the L3 if there are
//     not enough hardware resources to take the line immediately (e.g.,
//     the incoming data queue is full)", producing the L3-issued retries
//     that both mechanisms reduce.
package l3

import (
	"cmpcache/internal/cache"
	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/sim"
)

// line states stored in the tag array: the L3 only distinguishes clean
// from dirty.
const (
	stClean = int8(coherence.Shared)
	stDirty = int8(coherence.Modified)
)

// Castout describes a dirty L3 victim that must be written to memory.
type Castout struct {
	Key uint64
}

// Cache is the L3 victim cache controller.
type Cache struct {
	cfg *config.Config
	// tags is the whole L3's tag array. Its slice bits are the low bits
	// of the set index, so each slice's sets interleave and the array
	// holds chip-wide keys; servers model each slice's bandwidth.
	tags      *cache.Cache
	servers   []sim.Server // one per slice: off-chip array bandwidth
	queue     *sim.TokenQueue
	sliceMask uint64

	demandLookups    uint64
	demandHits       uint64
	loadLookups      uint64
	loadHits         uint64
	retriesIssued    uint64
	castouts         uint64
	evictions        uint64
	invalidations    uint64
	cleanWBRedundant uint64 // clean WBs snooped whose line was already valid (Table 1 numerator)
	cleanWBSnooped   uint64 // clean WBs snooped (Table 1 denominator)
}

// New builds the L3 from cfg.
func New(cfg *config.Config) *Cache {
	return &Cache{
		cfg:       cfg,
		tags:      cache.New(cfg.L3Lines()/cfg.L3Assoc, cfg.L3Assoc),
		servers:   make([]sim.Server, cfg.L3Slices),
		queue:     sim.NewTokenQueue(cfg.L3QueueEntries),
		sliceMask: uint64(cfg.L3Slices - 1),
	}
}

// Contains reports (without perturbing stats or recency) whether key is
// valid in the L3 — the oracle peek the paper uses to score WBHT
// decisions.
func (c *Cache) Contains(key uint64) bool { return c.tags.Contains(key) }

// PeekLine reports (without perturbing stats or recency) whether key is
// valid in the L3 and whether that copy is dirty. Shadow checkers use
// it for dirty-line conservation.
func (c *Cache) PeekLine(key uint64) (present, dirty bool) {
	if l, ok := c.tags.Peek(key); ok {
		return true, l.State == stDirty
	}
	return false, false
}

// SnoopDemand is the L3 directory's response to a demand transaction.
// Read hits keep the line (and refresh its recency); RWITM hits supply
// data but invalidate the L3 copy, which would otherwise go stale the
// moment the requester stores. isLoad tags the lookup for the Table 4
// "L3 load hit rate" statistic.
func (c *Cache) SnoopDemand(key uint64, kind coherence.TxnKind, isLoad bool) coherence.Response {
	c.demandLookups++
	if isLoad {
		c.loadLookups++
	}
	// An invalidating hit removes the line where it sits; refreshing its
	// recency first would leave the same set order.
	invalidating := kind == coherence.RWITM || kind == coherence.Upgrade
	var hit bool
	if invalidating {
		_, hit = c.tags.Invalidate(key)
	} else {
		hit = c.tags.Touch(key)
	}
	if !hit {
		return coherence.RespNull
	}
	c.demandHits++
	if isLoad {
		c.loadHits++
	}
	if invalidating {
		c.invalidations++
		if kind == coherence.Upgrade {
			// Ownership claims carry no data; the directory hit only
			// triggered the invalidation.
			return coherence.RespNull
		}
	}
	return coherence.RespL3Hit
}

// SnoopWB is the L3's response to a snooped write back. Clean write
// backs of lines already valid are squashed (baseline filter); anything
// else needs an incoming-queue entry, whose absence produces the retry
// response central to Section 2's contention story. A successful accept
// holds one queue token that the caller must return via ReleaseToken
// once the data transfer and array write complete.
func (c *Cache) SnoopWB(key uint64, kind coherence.TxnKind) coherence.Response {
	if kind == coherence.CleanWB {
		c.cleanWBSnooped++
		if c.tags.Touch(key) {
			c.cleanWBRedundant++
			return coherence.RespWBRedundant
		}
	}
	// A dirty write back of a line already present finds that copy
	// stale relative to the incoming dirty data: accept as an update if
	// queue space allows (no new allocation needed, but the data
	// transfer still uses a queue entry).
	if !c.queue.TryAcquire() {
		c.retriesIssued++
		return coherence.RespRetry
	}
	return coherence.RespWBAccept
}

// ReleaseToken returns one incoming-queue entry, either because the
// accepted write back completed its array write or because the combined
// response cancelled it (squash by a peer, snarf win by a peer L2).
func (c *Cache) ReleaseToken() { c.queue.Release() }

// Insert installs a written-back line (dirty per kind), returning a
// dirty victim that must be cast out to memory, if any. Insertion is at
// MRU. A line already present is updated in place (dirty data overwrite).
func (c *Cache) Insert(key uint64, kind coherence.TxnKind) (Castout, bool) {
	state := stClean
	if kind == coherence.DirtyWB {
		state = stDirty
	}
	l, evicted := c.tags.TouchOrInsert(key, state, 0)
	if l != nil {
		if state == stDirty {
			l.State = stDirty
		}
		return Castout{}, false
	}
	if evicted.Valid {
		c.evictions++
		if evicted.State == stDirty {
			c.castouts++
			return Castout{Key: evicted.Key}, true
		}
	}
	return Castout{}, false
}

// Evictions returns total capacity evictions (clean and dirty).
func (c *Cache) Evictions() uint64 { return c.evictions }

// ReserveSlice books off-chip array bandwidth on key's slice beginning
// at or after now, returning the access start cycle.
func (c *Cache) ReserveSlice(key uint64, now config.Cycles) config.Cycles {
	return c.servers[key&c.sliceMask].Reserve(now, c.cfg.L3SliceOccupancy)
}

// QueueInUse exposes current incoming-queue occupancy (tests/diagnostics).
func (c *Cache) QueueInUse() int { return c.queue.InUse() }

// TakeQueueWindowPeak returns the incoming queue's occupancy high-water
// mark since the previous call and rearms it (the metrics probe calls
// this once per sampling window).
func (c *Cache) TakeQueueWindowPeak() int { return c.queue.TakeWindowPeak() }

// Stats accessors.
func (c *Cache) DemandLookups() uint64  { return c.demandLookups }
func (c *Cache) DemandHits() uint64     { return c.demandHits }
func (c *Cache) LoadLookups() uint64    { return c.loadLookups }
func (c *Cache) LoadHits() uint64       { return c.loadHits }
func (c *Cache) RetriesIssued() uint64  { return c.retriesIssued }
func (c *Cache) Castouts() uint64       { return c.castouts }
func (c *Cache) Invalidations() uint64  { return c.invalidations }
func (c *Cache) CleanWBSnooped() uint64 { return c.cleanWBSnooped }

// CleanWBRedundant returns how many snooped clean write backs found
// their line already valid in the L3 — the numerator of the paper's
// Table 1.
func (c *Cache) CleanWBRedundant() uint64 { return c.cleanWBRedundant }

// LoadHitRate returns the L3 load hit rate (Table 4).
func (c *Cache) LoadHitRate() float64 {
	if c.loadLookups == 0 {
		return 0
	}
	return float64(c.loadHits) / float64(c.loadLookups)
}

// Occupancy returns the number of valid lines across all slices.
func (c *Cache) Occupancy() int { return c.tags.CountValid() }

// QueueStats exposes the incoming queue's token accounting for
// diagnostics: successful acquisitions, rejections (retries at the
// snoop filter), and the occupancy high-water mark.
func (c *Cache) QueueStats() (acquired, rejected uint64, peak int) {
	return c.queue.Acquired(), c.queue.Rejected(), c.queue.Peak()
}

// SliceWaited returns cumulative queueing delay across the off-chip
// array's slice servers.
func (c *Cache) SliceWaited() config.Cycles {
	var total config.Cycles
	for i := range c.servers {
		total += c.servers[i].WaitedCycles()
	}
	return total
}
