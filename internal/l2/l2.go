// Package l2 models one of the chip's four shared L2 caches: four
// independently ported slices of tag state (Figure 1), the MSHRs that
// track outstanding misses, the eight-entry write-back queue whose
// fullness blocks demand misses, and — when enabled — the paper's two
// adaptive structures (the Write Back History Table and the snarf reuse
// table) owned by this cache.
//
// The L2 caches are the system's points of coherence: every demand miss
// and write back appears on the ring and is snooped here. This package
// implements the state machine; transaction sequencing and timing live
// in internal/system.
package l2

import (
	"fmt"

	"cmpcache/internal/cache"
	"cmpcache/internal/coherence"
	"cmpcache/internal/config"
	"cmpcache/internal/core"
	"cmpcache/internal/sim"
	"cmpcache/internal/wbpolicy"
)

// flagSnarfed marks a line that arrived via a write-back snarf rather
// than a demand fill; it powers the Table 5 statistics on whether
// snarfed lines are later used locally or supplied as interventions.
const flagSnarfed uint8 = 1 << 0

// ProbeKind classifies the outcome of a demand probe.
type ProbeKind int8

const (
	// ProbeHit: the access completes locally with no bus transaction.
	ProbeHit ProbeKind = iota
	// ProbeHitStoreUpgrade: a store hit an Exclusive line; the access
	// completes locally but the caller must commit the silent E→M
	// upgrade (Line.SetState) so the transition flows through the same
	// observation path as every other dirty-state change.
	ProbeHitStoreUpgrade
	// ProbeHitNeedsUpgrade: the data is present but a store requires an
	// ownership claim on the bus (line held S, SL or T).
	ProbeHitNeedsUpgrade
	// ProbeWBBufferHit: the line was found in the write-back queue; the
	// pending write back is cancelled and the line reinstalled.
	ProbeWBBufferHit
	// ProbeMiss: a bus Read/RWITM is required.
	ProbeMiss
)

// Stats aggregates this L2's counters. Field names follow the paper's
// vocabulary.
type Stats struct {
	Accesses     uint64 // demand probes (loads+stores+ifetches)
	Hits         uint64 // proper tag hits (includes upgrades-needed)
	MSHRAttach   uint64 // accesses absorbed by a pending miss
	WBBufferHits uint64
	Misses       uint64 // probes that started a new bus transaction

	CleanVictims   uint64 // clean lines chosen for replacement
	DirtyVictims   uint64
	CleanWBQueued  uint64 // clean write backs actually enqueued
	CleanWBAborted uint64 // clean write backs aborted by the WBHT
	SharedDropped  uint64 // snarf installs that displaced a Shared line

	HistoryVictims uint64 // fills that used the WBHT-informed victim choice

	SnarfOffers         uint64 // snooped snarfable WBs from peers
	SnarfAccepts        uint64 // this cache volunteered
	SnarfInstalls       uint64 // this cache won and installed the line
	SnarfDeclinedMSHR   uint64 // declined: miss in flight for that line
	SnarfDeclinedFull   uint64 // declined: no invalid/shared victim
	SnarfDeclinedPolicy uint64 // declined: policy rejected the offer

	SnarfedUsedLocally  uint64 // snarfed line later hit by local demand
	SnarfedIntervention uint64 // snarfed line later supplied to a peer

	SnoopsObserved uint64
	Invalidations  uint64 // lines invalidated by peer RWITM/Upgrade
	Interventions  uint64 // data supplied to peers (all lines)
	UpdatesTaken   uint64 // lines kept Shared by a peer's update push
}

// WBEntry is one write-back queue occupant.
type WBEntry struct {
	Key       uint64
	Kind      coherence.TxnKind
	State     coherence.State // state the line held at eviction
	Snarfable bool            // reuse-table verdict, carried on the bus
	InFlight  bool            // bus transaction issued, awaiting combine
	Cancelled bool            // demand re-fetched the line; drop outcome
}

// mshr tracks one outstanding miss and the accesses coalesced onto it.
// Slots are reused: the waiter slices keep their capacity, so tracking a
// miss allocates nothing in steady state.
type mshr struct {
	kind         coherence.TxnKind
	loadWaiters  []func(config.Cycles)
	storeWaiters []func(config.Cycles)
}

// Cache is one L2 cache.
type Cache struct {
	id  int
	cfg *config.Config
	// tags is the whole cache's tag array. Its slice bits are the low
	// bits of the set index, so each slice's sets interleave and the
	// array holds chip-wide keys; ports model each slice's bandwidth.
	tags      *cache.Cache
	ports     []sim.Server
	sliceMask uint64

	// mshrKeys[i] is the line of live MSHR mshrs[i]. Both slices hold
	// exactly the live MSHRs, in no meaningful order (a free moves the
	// last slot into the hole), within capacity preallocated to
	// MSHRsPerL2; a lookup is a linear scan of the keys.
	mshrKeys []uint64
	mshrs    []mshr
	// drainLoads/drainStores are the reusable buffers TakeWaiters
	// returns; their contents are valid until the next TakeWaiters call
	// on this cache.
	drainLoads  []func(config.Cycles)
	drainStores []func(config.Cycles)

	wbq wbDeque // FIFO; index 0 is head

	stalls stallTable // misses stalled on a full queue or MSHRs (stall.go)

	// policy is the chip's write-back policy (never nil), called with
	// this cache's id; it owns the adaptive tables and the three
	// decision points (clean-WB abort, snarf flagging, offer
	// acceptance).
	policy wbpolicy.Policy

	stats Stats
}

// New builds L2 cache id from cfg under the chip's write-back policy.
func New(id int, cfg *config.Config, policy wbpolicy.Policy) *Cache {
	return &Cache{
		id:        id,
		cfg:       cfg,
		tags:      cache.New(cfg.L2Lines()/cfg.L2Assoc, cfg.L2Assoc),
		ports:     make([]sim.Server, cfg.L2Slices),
		sliceMask: uint64(cfg.L2Slices - 1),
		mshrKeys:  make([]uint64, 0, cfg.MSHRsPerL2),
		mshrs:     make([]mshr, 0, cfg.MSHRsPerL2),
		wbq:       newWBDeque(cfg.WBQueueEntries + 1),
		stalls:    newStallTable(cfg.ThreadsPerL2() * cfg.MaxOutstanding),
		policy:    policy,
	}
}

// ID returns the cache's agent index.
func (c *Cache) ID() int { return c.id }

// WBHT returns this cache's Write Back History Table, or nil.
func (c *Cache) WBHT() *core.WBHT { return c.policy.WBHT(c.id) }

// SnarfTable returns this cache's snarf reuse table, or nil.
func (c *Cache) SnarfTable() *core.SnarfTable { return c.policy.SnarfTable(c.id) }

// StatsSnapshot returns a copy of the counters.
func (c *Cache) StatsSnapshot() Stats { return c.stats }

// ReservePort books tag/data port bandwidth on key's slice starting at
// or after now, returning the access start cycle.
func (c *Cache) ReservePort(key uint64, now config.Cycles) config.Cycles {
	return c.ports[key&c.sliceMask].Reserve(now, c.cfg.L2PortOccupancy)
}

// Probe performs a demand lookup for a load (isStore=false) or store,
// updating recency. count controls access statistics: a probe
// re-attempted after a structural stall (full write-back queue or MSHRs)
// passes false so the access is not double-counted. Probe never mutates
// coherence state: a store hitting an Exclusive line reports
// ProbeHitStoreUpgrade and the caller commits the silent E→M transition
// via Line.SetState, so it lands inside the observation hooks (auditor,
// latency timers) like every other dirty-state change rather than as a
// side effect of a lookup.
func (c *Cache) Probe(key uint64, isStore, count bool) ProbeKind {
	if count {
		c.stats.Accesses++
	}
	line := c.tags.LookupTouch(key)
	if line != nil {
		if count {
			c.stats.Hits++
		}
		c.noteLocalUse(line)
		if !isStore {
			return ProbeHit
		}
		switch coherence.State(line.State) {
		case coherence.Modified:
			return ProbeHit
		case coherence.Exclusive:
			return ProbeHitStoreUpgrade
		default: // S, SL, T: must claim ownership on the bus
			return ProbeHitNeedsUpgrade
		}
	}
	if c.findWB(key) >= 0 {
		if count {
			c.stats.WBBufferHits++
		}
		return ProbeWBBufferHit
	}
	return ProbeMiss
}

// noteLocalUse scores Table 5's "snarfed lines used locally" once per
// snarfed line.
func (c *Cache) noteLocalUse(line *cache.Meta) {
	if line.Flags&flagSnarfed != 0 {
		c.stats.SnarfedUsedLocally++
		line.Flags &^= flagSnarfed
	}
}

// ForEachLine invokes fn for every valid line with its chip-wide key,
// coherence state and flag bits: slice by slice, then set by set, then
// MRU to LRU. It perturbs neither recency nor statistics, so shadow
// checkers may call it between events.
func (c *Cache) ForEachLine(fn func(key uint64, st coherence.State, flags uint8)) {
	c.tags.ForEach(c.cfg.L2Slices, func(l cache.Line) {
		fn(l.Key, coherence.State(l.State), l.Flags)
	})
}

// ForEachWB invokes fn for every write-back queue entry — live,
// in-flight and cancelled alike — head first. Observation-only.
func (c *Cache) ForEachWB(fn func(e WBEntry)) {
	for i := 0; i < c.wbq.Len(); i++ {
		fn(*c.wbq.At(i))
	}
}

// Line is a handle on one line's tag record: its coherence state is
// read and changed through it, so a commit that reads the state and
// then changes it probes the tags once. It stays valid until the
// cache's tags next change.
type Line struct{ m *cache.Meta }

// Line looks key up without perturbing recency or statistics.
func (c *Cache) Line(key uint64) Line { return Line{c.tags.Lookup(key)} }

// State returns the line's coherence state (Invalid when absent).
func (l Line) State() coherence.State {
	if l.m == nil {
		return coherence.Invalid
	}
	return coherence.State(l.m.State)
}

// SetState overwrites the state of a resident line. It panics if the
// line is absent, which would indicate a protocol sequencing bug.
func (l Line) SetState(st coherence.State) {
	if l.m == nil {
		panic(fmt.Sprintf("l2: SetState on absent line, state %v", st))
	}
	l.m.State = int8(st)
}

// --- MSHR management ---

// findMSHR returns the slot of key's outstanding miss, or -1.
func (c *Cache) findMSHR(key uint64) int {
	for i, k := range c.mshrKeys {
		if k == key {
			return i
		}
	}
	return -1
}

// MSHRFor returns whether key has an outstanding miss.
func (c *Cache) MSHRFor(key uint64) bool { return c.findMSHR(key) >= 0 }

// MSHRCount returns the number of live MSHRs.
func (c *Cache) MSHRCount() int { return len(c.mshrKeys) }

// MSHRFull reports whether a new miss can be tracked.
func (c *Cache) MSHRFull() bool { return len(c.mshrKeys) >= c.cfg.MSHRsPerL2 }

// AllocMSHR registers a new outstanding miss with its first waiters,
// which are stores when isStore is true and loads otherwise; it is
// AttachMSHR of each waiter without searching the MSHRs again. It
// panics on duplicate allocation (the caller must Attach instead).
func (c *Cache) AllocMSHR(key uint64, kind coherence.TxnKind, isStore bool, waiters ...func(config.Cycles)) {
	if c.findMSHR(key) >= 0 {
		panic(fmt.Sprintf("l2 %d: duplicate MSHR for %#x", c.id, key))
	}
	c.stalls.mark(key)
	c.mshrKeys = append(c.mshrKeys, key)
	if n := len(c.mshrs); n < cap(c.mshrs) {
		c.mshrs = c.mshrs[:n+1] // reuse the retired slot's waiter storage
	} else {
		c.mshrs = append(c.mshrs, mshr{})
	}
	m := &c.mshrs[len(c.mshrs)-1]
	m.kind = kind
	m.loadWaiters = m.loadWaiters[:0]
	m.storeWaiters = m.storeWaiters[:0]
	if isStore {
		m.storeWaiters = append(m.storeWaiters, waiters...)
	} else {
		m.loadWaiters = append(m.loadWaiters, waiters...)
	}
}

// ReissueMSHR changes the bus transaction kind of key's outstanding
// miss, keeping its waiters: an ownership claim that lost its race
// restarts as an RWITM. No stalled re-poll's input changes (stall.go):
// the MSHR exists before and after. It panics when no MSHR exists.
func (c *Cache) ReissueMSHR(key uint64, kind coherence.TxnKind) {
	i := c.findMSHR(key)
	if i < 0 {
		panic(fmt.Sprintf("l2 %d: ReissueMSHR on absent MSHR %#x", c.id, key))
	}
	c.mshrs[i].kind = kind
}

// AttachMSHR registers a completion callback on an outstanding miss,
// reporting false when none exists. Store waiters are completed only
// after ownership is obtained (see TakeWaiters). Coalescing statistics
// are the caller's concern (CountMSHRAttach): the primary requester
// attaches through the same path.
func (c *Cache) AttachMSHR(key uint64, isStore bool, done func(config.Cycles)) bool {
	i := c.findMSHR(key)
	if i < 0 {
		return false
	}
	m := &c.mshrs[i]
	if isStore {
		m.storeWaiters = append(m.storeWaiters, done)
	} else {
		m.loadWaiters = append(m.loadWaiters, done)
	}
	return true
}

// MSHRKind returns the bus transaction kind of key's outstanding miss.
// It panics when no MSHR exists.
func (c *Cache) MSHRKind(key uint64) coherence.TxnKind {
	i := c.findMSHR(key)
	if i < 0 {
		panic(fmt.Sprintf("l2 %d: MSHRKind on absent MSHR %#x", c.id, key))
	}
	return c.mshrs[i].kind
}

// TakeWaiters removes key's MSHR and returns its coalesced load and
// store completion callbacks. It panics when no MSHR exists. The
// returned slices are reused storage, valid until the next TakeWaiters
// call on this cache.
func (c *Cache) TakeWaiters(key uint64) (loads, stores []func(config.Cycles)) {
	i := c.findMSHR(key)
	if i < 0 {
		panic(fmt.Sprintf("l2 %d: TakeWaiters on absent MSHR %#x", c.id, key))
	}
	m := &c.mshrs[i]
	c.drainLoads = append(c.drainLoads[:0], m.loadWaiters...)
	c.drainStores = append(c.drainStores[:0], m.storeWaiters...)
	last := len(c.mshrKeys) - 1
	c.mshrKeys[i] = c.mshrKeys[last]
	c.mshrKeys = c.mshrKeys[:last]
	c.mshrs[i], c.mshrs[last] = c.mshrs[last], c.mshrs[i]
	c.mshrs = c.mshrs[:last]
	return c.drainLoads, c.drainStores
}

// CountMiss records that a probe for key became a new bus transaction
// and lets the policy observe the local miss (reuse-distance training
// runs on this per-L2 miss clock).
func (c *Cache) CountMiss(key uint64) {
	c.stats.Misses++
	c.policy.ObserveLocalMiss(c.id, key)
}

// CountMSHRAttach records that an access coalesced onto an existing
// outstanding miss instead of issuing its own transaction.
func (c *Cache) CountMSHRAttach() { c.stats.MSHRAttach++ }

// --- Write-back queue ---

// WBQueueFull reports whether the write-back queue has no free slot; a
// full queue blocks demand misses ("misses to the L2 cache will be
// blocked and will have to wait for an open slot").
func (c *Cache) WBQueueFull() bool { return c.wbq.Len() >= c.cfg.WBQueueEntries }

// WBQueueLen returns current occupancy.
func (c *Cache) WBQueueLen() int { return c.wbq.Len() }

func (c *Cache) findWB(key uint64) int {
	for i := 0; i < c.wbq.Len(); i++ {
		if e := c.wbq.At(i); e.Key == key && !e.Cancelled {
			return i
		}
	}
	return -1
}

// CancelWB removes (or, if already on the bus, poisons) the queued write
// back for key and returns its entry for reinstallation. ok is false
// when no live entry exists.
func (c *Cache) CancelWB(key uint64) (WBEntry, bool) {
	i := c.findWB(key)
	if i < 0 {
		return WBEntry{}, false
	}
	e := *c.wbq.At(i)
	if e.InFlight {
		c.wbq.At(i).Cancelled = true
	} else {
		c.wbq.RemoveAt(i)
	}
	return e, true
}

// HeadWB returns the next entry to issue (skipping cancelled ones) and
// marks it in flight. ok is false when the queue has no issuable entry.
func (c *Cache) HeadWB() (*WBEntry, bool) {
	for i := 0; i < c.wbq.Len(); i++ {
		if e := c.wbq.At(i); !e.Cancelled && !e.InFlight {
			e.InFlight = true
			return e, true
		}
	}
	return nil, false
}

// RequeueWB reinstates a retried entry at the head of the queue so it
// re-arbitrates before younger write backs, preserving FIFO order. The
// entry is stored issuable (not in flight, not cancelled). RequeueWB is
// exempt from the capacity gate: the entry's slot was logically never
// given up.
func (c *Cache) RequeueWB(e WBEntry) {
	e.InFlight = false
	e.Cancelled = false
	c.stalls.mark(e.Key)
	c.wbq.PushFront(e)
}

// CompleteWB removes the in-flight (possibly cancelled) entry for key,
// returning it along with whether it had been cancelled while on the
// bus.
func (c *Cache) CompleteWB(key uint64) (entry WBEntry, wasCancelled bool) {
	for i := 0; i < c.wbq.Len(); i++ {
		if e := c.wbq.At(i); e.Key == key && e.InFlight {
			entry = *e
			c.wbq.RemoveAt(i)
			return entry, entry.Cancelled
		}
	}
	panic(fmt.Sprintf("l2 %d: CompleteWB on absent in-flight entry %#x", c.id, key))
}

// Reinstall puts a write-back-buffer line back into the tag array (a
// demand access caught it before it left the chip). The caller supplies
// the entry returned by CancelWB. Reinstallation may itself evict a
// victim, which the caller must process.
func (c *Cache) Reinstall(e WBEntry) (victimKey uint64, victimState coherence.State, evicted bool) {
	c.stalls.mark(e.Key)
	v, did := c.tags.Insert(e.Key, int8(e.State), 0, true)
	if !did {
		return 0, coherence.Invalid, false
	}
	return v.Key, coherence.State(v.State), true
}

// --- Victim handling (the paper's Section 2 policy) ---

// VictimAction says what became of an evicted line.
type VictimAction int8

const (
	// VictimNone: the victim was invalid; nothing to do.
	VictimNone VictimAction = iota
	// VictimQueued: a write back was enqueued.
	VictimQueued
	// VictimAborted: the WBHT predicted the line already resides in the
	// L3, so the clean write back was suppressed.
	VictimAborted
)

// String renders the action for trace output (static strings only).
func (a VictimAction) String() string {
	switch a {
	case VictimNone:
		return "none"
	case VictimQueued:
		return "queued"
	case VictimAborted:
		return "aborted"
	}
	return "?"
}

// ProcessVictim applies the write-back policy to an evicted line,
// identified by its chip-wide key (as returned by InstallFill) and the
// state it held. switchActive is the retry-rate switch state
// (Section 2.2), passed to switch-gated policies; inL3 is the
// simulator's oracle peek used solely to score prediction accuracy
// (Table 4's "WBHT Correct" row). The policy occupies decision points
// 1 (clean-WB abort) and 2 (snarf flagging) here.
func (c *Cache) ProcessVictim(key uint64, st coherence.State, switchActive, inL3 bool) VictimAction {
	if !st.Valid() {
		return VictimNone
	}
	c.policy.ObserveEviction(c.id, key)
	kind := coherence.CleanWB
	if st.Dirty() {
		kind = coherence.DirtyWB
		c.stats.DirtyVictims++
	} else {
		c.stats.CleanVictims++
		if c.policy.AbortCleanWB(c.id, key, switchActive, inL3) {
			c.stats.CleanWBAborted++
			return VictimAborted
		}
		c.stats.CleanWBQueued++
	}
	entry := WBEntry{Key: key, Kind: kind, State: st, Snarfable: c.policy.FlagWriteBack(c.id, key)}
	c.stalls.mark(key)
	c.wbq.PushBack(entry)
	return VictimQueued
}

// --- Fills and snarf installs ---

// historyReplacementWindow bounds how deep into the LRU stack the
// history-informed victim search looks (Section 7 extension).
const historyReplacementWindow = 4

// InstallFill inserts a demand fill with the given state, returning the
// victim it displaced and its state, if any. With HistoryReplacement enabled, the victim search prefers —
// within the LRU-most window — clean lines whose tags hit in this
// cache's WBHT: they are already in the L3, so their eviction is free
// (the write back will be aborted) and cheap to undo (L3 hit, not a
// memory access).
func (c *Cache) InstallFill(key uint64, st coherence.State) (victimKey uint64, victimState coherence.State, evicted bool) {
	c.stalls.mark(key)
	var v cache.Line
	var did bool
	if w := c.WBHT(); c.cfg.WBHT.HistoryReplacement && w != nil {
		v, did = c.tags.InsertPrefer(key, int8(st), 0, true, historyReplacementWindow, func(l cache.Line) bool {
			lst := coherence.State(l.State)
			return lst.Valid() && !lst.Dirty() && w.Contains(l.Key)
		})
		if did {
			c.stats.HistoryVictims++
		}
	} else {
		v, did = c.tags.Insert(key, int8(st), 0, true)
	}
	if !did {
		return 0, coherence.Invalid, false
	}
	return v.Key, coherence.State(v.State), true
}

// --- Snooping ---

// SnoopDemand reacts to a peer's demand transaction: state transitions
// per the POWER4-style protocol and the snoop response for the
// collector. Own transactions must not be snooped by their issuer.
func (c *Cache) SnoopDemand(key uint64, kind coherence.TxnKind) coherence.Response {
	c.stats.SnoopsObserved++
	way, line := c.tags.LookupWay(key)
	if line == nil {
		return coherence.RespNull
	}
	st := coherence.State(line.State)
	switch kind {
	case coherence.Read:
		switch st {
		case coherence.Modified:
			line.State = int8(coherence.Tagged)
			c.noteIntervention(line)
			return coherence.RespModifiedIntervention
		case coherence.Tagged:
			c.noteIntervention(line)
			return coherence.RespModifiedIntervention
		case coherence.Exclusive, coherence.SharedLast:
			line.State = int8(coherence.Shared) // requester becomes SL
			c.noteIntervention(line)
			return coherence.RespSharedIntervention
		case coherence.Shared:
			return coherence.RespShared
		}
	case coherence.RWITM:
		resp := coherence.RespShared
		switch st {
		case coherence.Modified, coherence.Tagged:
			c.noteIntervention(line)
			resp = coherence.RespModifiedIntervention
		case coherence.Exclusive, coherence.SharedLast:
			c.noteIntervention(line)
			resp = coherence.RespSharedIntervention
		}
		c.tags.InvalidateWay(key, way)
		c.stats.Invalidations++
		return resp
	case coherence.Upgrade:
		if st == coherence.Modified {
			// A lost ownership race: our own claim (or RWITM) already
			// invalidated the upgrader's copy, so its stale Upgrade must
			// not destroy the only current copy of the data. The system
			// never snoops a stale claim (it restarts as RWITM straight
			// from the combine), so this guard is defense in depth.
			return coherence.RespNull
		}
		// The claimer already holds the data; we just relinquish ours.
		c.tags.InvalidateWay(key, way)
		c.stats.Invalidations++
		return coherence.RespShared
	}
	return coherence.RespNull
}

// SnoopUpdate reacts to a peer's update-mode ownership claim (the
// hybrid update/invalidate policy): instead of relinquishing its copy,
// the snooper keeps the line Shared and receives the writer's data
// push. A clean supplier (SL/E) or dirty owner (T) demotes to plain
// Shared — the writer becomes the line's dirty supplier — and a
// Modified copy means the claim already lost its race (same defense in
// depth as SnoopDemand's stale-Upgrade guard), so it answers RespNull.
func (c *Cache) SnoopUpdate(key uint64) coherence.Response {
	c.stats.SnoopsObserved++
	line := c.tags.Lookup(key)
	if line == nil {
		return coherence.RespNull
	}
	switch coherence.State(line.State) {
	case coherence.Modified:
		return coherence.RespNull
	case coherence.Tagged, coherence.SharedLast, coherence.Exclusive:
		line.State = int8(coherence.Shared)
	}
	c.stats.UpdatesTaken++
	return coherence.RespShared
}

// SnoopDemandWB extends demand snooping to the write-back queue: a
// castout buffer participates in snooping exactly like the tag array,
// otherwise a queued entry goes stale the moment a peer's RWITM or
// Upgrade commits and a later reinstallation or snarf resurrects it as
// a valid copy alongside the new owner's Modified line. The system
// calls it when the tag array had no copy (the two never hold the same
// line at once). State transitions mirror SnoopDemand's: a Read demotes
// the entry in place (Modified→Tagged, Exclusive/SharedLast→Shared) and
// supplies the data; an invalidating transaction cancels the entry —
// removed when still queued, poisoned when already on the bus — and
// returns it so the caller can audit the hand-off. A Modified entry
// survives an Upgrade snoop for the same reason a Modified array line
// does: it can only coexist with a claim that has already lost its
// race.
func (c *Cache) SnoopDemandWB(key uint64, kind coherence.TxnKind) (resp coherence.Response, cancelled WBEntry, didCancel bool) {
	i := c.findWB(key)
	if i < 0 {
		return coherence.RespNull, WBEntry{}, false
	}
	e := c.wbq.At(i)
	st := e.State
	switch kind {
	case coherence.Read:
		switch st {
		case coherence.Modified:
			e.State = coherence.Tagged
			c.stats.Interventions++
			return coherence.RespModifiedIntervention, WBEntry{}, false
		case coherence.Tagged:
			c.stats.Interventions++
			return coherence.RespModifiedIntervention, WBEntry{}, false
		case coherence.Exclusive, coherence.SharedLast:
			e.State = coherence.Shared // requester becomes SL
			c.stats.Interventions++
			return coherence.RespSharedIntervention, WBEntry{}, false
		default:
			return coherence.RespShared, WBEntry{}, false
		}
	case coherence.RWITM:
		resp = coherence.RespShared
		switch st {
		case coherence.Modified, coherence.Tagged:
			c.stats.Interventions++
			resp = coherence.RespModifiedIntervention
		case coherence.Exclusive, coherence.SharedLast:
			c.stats.Interventions++
			resp = coherence.RespSharedIntervention
		}
		out := *e
		c.dropWBAt(i)
		c.stats.Invalidations++
		return resp, out, true
	case coherence.Upgrade:
		if st == coherence.Modified {
			return coherence.RespNull, WBEntry{}, false
		}
		out := *e
		c.dropWBAt(i)
		c.stats.Invalidations++
		return coherence.RespShared, out, true
	}
	return coherence.RespNull, WBEntry{}, false
}

// dropWBAt invalidates queue slot i: removed outright when still
// waiting, poisoned when its bus transaction is in flight (the combine
// discards a cancelled entry).
func (c *Cache) dropWBAt(i int) {
	if c.wbq.At(i).InFlight {
		c.wbq.At(i).Cancelled = true
	} else {
		c.wbq.RemoveAt(i)
	}
}

// noteIntervention updates intervention statistics, scoring snarfed
// lines once (Table 5's "snarfed lines provided for interventions").
func (c *Cache) noteIntervention(line *cache.Meta) {
	c.stats.Interventions++
	if line.Flags&flagSnarfed != 0 {
		c.stats.SnarfedIntervention++
		line.Flags &^= flagSnarfed
	}
}

// SnoopWB reacts to a peer's write back when snarfing is enabled. The
// squash check runs for every write back — in a snoopy protocol the tag
// lookup is part of mandatory snooping, and "lines being written back
// are frequently found in peer L2 caches"; squashing them is what
// collapses the L3 retry rate in Table 5. The expensive part — the
// victim-way search and fill-buffer reservation of the snarf algorithm —
// runs only for write backs the reuse table marked snarfable
// (Section 3: unrestricted snarfing "will likely offset any performance
// gains" through added pressure). A snarf volunteer also requires no
// miss in flight for the line ("we conservatively decline the cache
// line in that situation").
func (c *Cache) SnoopWB(key uint64, kind coherence.TxnKind, snarfable bool) coherence.Response {
	c.stats.SnoopsObserved++
	if !c.policy.SnoopsWB() {
		return coherence.RespNull
	}
	if c.tags.Contains(key) {
		return coherence.RespWBSquash
	}
	if !snarfable {
		return coherence.RespNull
	}
	c.stats.SnarfOffers++
	if c.MSHRFor(key) {
		c.stats.SnarfDeclinedMSHR++
		return coherence.RespNull
	}
	okStates := []int8{}
	if c.cfg.Snarf.VictimizeShared {
		okStates = append(okStates, int8(coherence.Shared))
	}
	way, _ := c.tags.ReplaceableWay(key, okStates...)
	if way < 0 {
		c.stats.SnarfDeclinedFull++
		return coherence.RespNull
	}
	// Decision point 3: the structural checks passed; the policy has
	// the final accept/reject say.
	if !c.policy.AcceptOffer(c.id, key) {
		c.stats.SnarfDeclinedPolicy++
		return coherence.RespNull
	}
	c.stats.SnarfAccepts++
	return coherence.RespSnarfAccept
}

// AcceptSnarf installs a snarfed write back after winning arbitration.
// The install repeats the victim search (still within the same combine
// event, so the set cannot have changed) and places the line per the
// configured insertion policy, marked snarfed, with its original
// coherence state. ok reports whether the install happened; when it
// displaced a valid (Shared) line, dropped is true and displaced holds
// that line's chip-wide key so conservation checkers can account for it.
func (c *Cache) AcceptSnarf(e WBEntry) (displaced uint64, dropped bool, ok bool) {
	okStates := []int8{}
	if c.cfg.Snarf.VictimizeShared {
		okStates = append(okStates, int8(coherence.Shared))
	}
	way, old := c.tags.ReplaceableWay(e.Key, okStates...)
	if way < 0 {
		return 0, false, false
	}
	if old.Valid {
		c.stats.SharedDropped++
	}
	c.stalls.mark(e.Key)
	prev := c.tags.ReplaceWay(e.Key, way, int8(e.State), flagSnarfed, c.cfg.Snarf.InsertMRU)
	c.stats.SnarfInstalls++
	return prev.Key, prev.Valid, true
}

// TakeSupplierRole promotes this cache's plain Shared copy of key to
// SharedLast, inheriting the designated clean-supplier role. The system
// calls it when a peer's clean write back of a SharedLast line is
// squashed because we hold a copy: without the hand-off the remaining
// sharers would have no intervention source, and the next read miss
// would go off chip despite the line being resident on chip. It reports
// whether the promotion happened (false when we no longer hold the line
// or hold it in a state that already supplies).
func (c *Cache) TakeSupplierRole(key uint64) bool {
	l := c.tags.Lookup(key)
	if l == nil || coherence.State(l.State) != coherence.Shared {
		return false
	}
	l.State = int8(coherence.SharedLast)
	return true
}

// TakeWBObligation transfers dirty-data responsibility to this cache: a
// peer's dirty write back was squashed because we hold a valid (clean,
// shared) copy, so our copy becomes Tagged and will be written back on
// eviction. It panics if we do not actually hold the line.
func (c *Cache) TakeWBObligation(key uint64) {
	l := c.tags.Lookup(key)
	if l == nil {
		panic(fmt.Sprintf("l2 %d: TakeWBObligation without a copy of %#x", c.id, key))
	}
	l.State = int8(coherence.Tagged)
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int { return c.tags.CountValid() }

// HitRate returns hits (including MSHR attaches and WB-buffer hits)
// over accesses.
func (c *Cache) HitRate() float64 {
	if c.stats.Accesses == 0 {
		return 0
	}
	return float64(c.stats.Hits+c.stats.WBBufferHits) / float64(c.stats.Accesses)
}
